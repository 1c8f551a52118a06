package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement as it appears in every output of the
// harness: the contract line, the result files and the printed tables.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quartiles returns the first quartile, median and third quartile of xs
// using the same exclusive method as Python's statistics.quantiles(n=4),
// which is what the driver applies to the ten-seed spread. Fewer than two
// values collapse to that value.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		// position p·(n+1) on 1-based ranks, clamped to the sample.
		pos := p * float64(n+1)
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// median is the middle value of xs (mean of the two middle values when the
// count is even).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-th percentile (0..1) of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) from
// /proc/self/status in MB. The kernel maintains it, so it costs nothing
// during the timed window.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer func() {
		//lint:ignore dropped-error read-only file; nothing depends on this close
		f.Close()
	}()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("bench: VmHWM %q: %w", fields[1], err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("bench: no VmHWM line in /proc/self/status")
}

// seconds is shorthand for the float seconds elapsed since t.
func seconds(t time.Time) float64 { return time.Since(t).Seconds() }
