package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// The benchmark runs on small virtual machines whose hypervisor, in
// bursts, takes a large share of the vCPUs away (steal time): the
// program then runs up to twice as slowly for a minute or two, for
// reasons that have nothing to do with it. The timed window is therefore
// cut into slices (serve) or regenerations (sweep), the host's steal
// share is read for each, and the end-to-end figures come from the clean
// ones. The window is extended, by up to a quarter of its length, until
// three quarters of it measured clean; the cap keeps a run of the whole
// benchmark within its time budget even on a host that steals
// throughout.

// maxSteal is the largest share of CPU ticks the hypervisor may steal
// during a slice for the slice to count as clean. Quiet hosts steal
// about 0.1%; bursts steal 20-50%.
const maxSteal = 0.03

// cpuSample is one reading of the aggregate CPU line of /proc/stat.
type cpuSample struct{ steal, total float64 }

func readCPU() (cpuSample, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSample{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already part of user time.
	if len(f) < 9 || f[0] != "cpu" {
		return cpuSample{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var s cpuSample
	for i, v := range f[1:9] {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return cpuSample{}, fmt.Errorf("/proc/stat: %w", err)
		}
		s.total += n
		if i == 7 {
			s.steal = n
		}
	}
	return s, nil
}

// stealSince is the share of CPU ticks stolen between two readings.
func (s cpuSample) stealSince(before cpuSample) float64 {
	return ratio(s.steal-before.steal, s.total-before.total)
}

// cleanEnough reports whether a window may close: it has run its
// nominal length and three quarters of that measured clean, or it has
// run 1.25 times its nominal length.
func cleanEnough(elapsed, clean, window float64) bool {
	return elapsed >= window && (clean >= 0.75*window || elapsed >= 1.25*window)
}

// minCleanParts is how many clean parts the figures need to come from
// the clean parts alone; with fewer, every part counts.
const minCleanParts = 3
