package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runCompare reads result records (-out files, one JSON record per line)
// of two sides and prints, per workload and value, each side's median
// and the relative change. It refuses to compare records taken with
// another Go version, GOMAXPROCS, CPU count, window or trace mode: those
// figures do not measure the same thing.
func runCompare(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare OLD.jsonl NEW.jsonl")
	}
	var sides [2][]record
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			return fmt.Errorf("%s: no records", path)
		}
		sides[i] = recs
	}
	ref := sides[0][0].Context
	for _, recs := range sides {
		for _, r := range recs {
			if err := sameContext(ref, r.Context); err != nil {
				return err
			}
		}
	}
	type key struct{ workload, name string }
	var vals [2]map[key][]float64
	for i, recs := range sides {
		vals[i] = map[key][]float64{}
		for _, r := range recs {
			for name, v := range r.Values {
				k := key{r.Context.Workload, name}
				vals[i][k] = append(vals[i][k], v)
			}
		}
	}
	byName := map[string]key{}
	for k := range vals[0] {
		if _, ok := vals[1][k]; ok {
			byName[k.workload+" "+k.name] = k
		}
	}
	fmt.Fprintf(stdout, "%-14s %-34s %14s %14s %9s\n", "workload", "value", "old median", "new median", "change")
	for _, n := range sortedKeys(byName) {
		k := byName[n]
		o, nw := median(vals[0][k]), median(vals[1][k])
		fmt.Fprintf(stdout, "%-14s %-34s %14.6g %14.6g %+8.2f%%\n", k.workload, k.name, o, nw, 100*(ratio(nw, o)-1))
	}
	return nil
}

// sameContext reports how two run contexts differ. The commit is
// ignored (comparing commits is the point), and so are the seed and the
// workload, which vary across the runs of one side by design.
func sameContext(a, b runContext) error {
	a.Commit, b.Commit = "", ""
	a.Seed, b.Seed = 0, 0
	a.Workload, b.Workload = "", ""
	if a != b {
		return fmt.Errorf("refusing to compare: run contexts differ (%+v vs %+v)", a, b)
	}
	return nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
