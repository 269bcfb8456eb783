package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"hash/crc32"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"time"
)

// The host's speed is not steady: on a shared 2-vCPU VM the same code runs
// up to about 1.9x slower for stretches of one to several seconds (pinned
// to one vCPU with one P, too), and the share of slow stretches differs
// from run to run. A tight arithmetic loop does not slow down; code that
// walks a lot of instructions and data, as a server does, does. So every
// thread that sends requests also times a fixed reference kernel of that
// kind, and the latency and rate figures are scaled window by window to
// the speed at which the kernel takes calRefUs (see README.md).
//
// The kernel is built from the standard library alone and does not
// allocate, so no change to FLARE can move it: not through its code, and
// not through the garbage collector, whose assists would charge an
// allocating kernel for the program's garbage. Each burst first runs the
// kernel once untimed, so the timed runs do not pay for the caches the
// request or tick before them filled.
const (
	calPeriod = 5 * time.Millisecond // a thread times one burst per period at most
	calRuns   = 3                    // timed kernel runs per burst; the burst's time is their median
	calRefUs  = 5.0                  // the kernel time, in µs, figures are scaled to
)

var calPattern = regexp.MustCompile(`^feature[0-9]+-(job[a-z]*)_([0-9.]+)$`)

// calRecord is the reference kernel's JSON payload.
type calRecord struct {
	Name  string
	IDs   []int
	Point struct{ X, Y float64 }
}

// calibrator times reference-kernel bursts on one thread. Its buffers are
// reused, so the kernel does not allocate once they have grown.
type calibrator struct {
	last time.Time
	n    int // bursts so far; varies the kernel's input
	sink int
	buf  []byte
	ints []int
	out  bytes.Buffer
	enc  *json.Encoder
	rec  calRecord
}

// kernel is the reference kernel: number formatting, a regexp match, JSON
// encoding and validation, SHA-256, CRC-32, time formatting and a sort, on
// inputs derived from i. It returns a value that depends on all of it, so
// none is elided.
func (c *calibrator) kernel(i int) int {
	if c.enc == nil {
		c.enc = json.NewEncoder(&c.out)
		c.ints = make([]int, 64)
	}
	c.buf = append(c.buf[:0], "feature"...)
	c.buf = strconv.AppendInt(c.buf, int64(i%3), 10)
	c.buf = append(c.buf, "-job"...)
	for k := 0; k < i%5; k++ {
		c.buf = append(c.buf, 'x')
	}
	c.buf = append(c.buf, '_')
	c.buf = strconv.AppendFloat(c.buf, float64(i)*1.25, 'f', 3, 64)
	n := 0
	if calPattern.Match(c.buf) {
		n++
	}
	c.out.Reset()
	c.rec = calRecord{Name: "feature-name", IDs: c.ints[:8]}
	c.rec.Point.X = float64(i)
	_ = c.enc.Encode(&c.rec)
	if json.Valid(c.out.Bytes()) {
		n++
	}
	h := sha256.Sum256(c.out.Bytes())
	n += int(h[0]) + int(crc32.ChecksumIEEE(c.buf))
	c.buf = time.Unix(int64(i), 0).UTC().AppendFormat(c.buf[:0], time.RFC3339)
	for k := range c.ints {
		c.ints[k] = (i*7919 + k*104729) % 1000
	}
	sort.Ints(c.ints)
	return n + bytes.Count(c.out.Bytes(), []byte(",")) + len(c.buf)
}

// burst runs the kernel once untimed, then calRuns times, and returns the
// median of the timed runs, in ns.
func (c *calibrator) burst() int64 {
	c.sink += c.kernel(c.n)
	var ns [calRuns]int64
	for k := range ns {
		t0 := time.Now()
		c.sink += c.kernel(c.n + k + 1)
		ns[k] = int64(time.Since(t0))
	}
	c.n++
	c.last = time.Now()
	slices.Sort(ns[:])
	return ns[calRuns/2]
}

// due reports whether calPeriod has passed since the last burst.
func (c *calibrator) due(now time.Time) bool { return now.Sub(c.last) >= calPeriod }

// calScale is calRefUs over the median of burst times (ns): the factor
// that turns a time measured at the host's speed then into one at the
// reference speed. Without samples it is 1.
func calScale(burstNs []float64) float64 {
	if len(burstNs) == 0 {
		return 1
	}
	return calRefUs * 1e3 / median(burstNs)
}
