package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"slices"
	"time"
)

// The host probe is a fixed piece of work, owned by the benchmark and
// sharing no code with the program under test, that a run times in slices
// spread over its set-ups and its window. The bounded timings of the run
// are then scaled by probeRefMS ÷ (the median slice time over the same
// span): they read as if the host had run at the speed it had when
// probeRefMS was measured.
//
// On the 2-vCPU VM this was built on, the host's speed changes by up to 2×
// for minutes at a time, and every timing of every workload moves with it:
// in one set of ten runs, cold's simnba p50 went from 16 to 9 ms half way
// through. Over 65 half-minute blocks of interleaved work, a cold simnba
// solve ranged 1.96× (interquartile spread 0.21 of the median), a simisland
// 2D DP 1.58× (0.10) and a loopback round trip 1.75× (0.09); divided by the
// probe they ranged 1.23×, 1.14× and 1.15× (0.10, 0.04, 0.05). No one part
// of the probe tracks every workload: dense scoring and allocation track
// HDRRM's solve, the pointer chase the 2D DP, the loopback echo the serving
// path, so a slice runs a little of each, in about equal shares. A
// dependent floating-point loop, which stayed within ±15% while the solves
// swung 2×, is not part of it.
//
// The probe runs in a child process, so it shares neither heap nor garbage
// collector nor resident set with the code it is compared with, and only
// while that code is idle: between in-process solves, between a serving
// reply and the next send, after each set-up. It cannot tell a slow host
// from a program that leaves work running between its operations: such
// work would slow the probe and be divided out. The raw timings, and the
// probe's own, are in every result file.
type probe struct {
	c     *child
	req   *os.File // one byte asks for a slice
	reply *os.File // eight bytes answer with its duration in ns
	last  time.Time
	times []float64 // ms per slice, in the order they ran
	err   error     // the first failure; later slices are skipped
}

// probeRefMS is the probe's median slice time on the 2-vCPU VM (Intel Xeon,
// Go 1.24) in a fast spell, so that scaled timings there read as measured.
const probeRefMS = 1.0

const (
	// probeEnv set to 1 makes the rrmladder binary (or its test binary) the
	// probe's child: it serves slices on stdin and stdout until stdin closes.
	probeEnv = "RRMLADDER_PROBE_CHILD"
	// probeEvery spaces the slices of a timed window, at about 2% of it.
	probeEvery = 50 * time.Millisecond
	// setupSlices run after each set-up.
	setupSlices = 20
	// warmSlices run before any is recorded: the first ones fault in pages
	// and open the echo connection's window.
	warmSlices = 10
)

// startProbe starts the probe's child process.
func startProbe() (*probe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	reqR, reqW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	repR, repW, err := os.Pipe()
	if err != nil {
		reqR.Close()
		reqW.Close()
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), probeEnv+"=1")
	cmd.Stdin, cmd.Stdout, cmd.Stderr = reqR, repW, os.Stderr
	c, err := startChild(cmd)
	reqR.Close()
	repW.Close()
	if err != nil {
		reqW.Close()
		repR.Close()
		return nil, fmt.Errorf("starting the host probe: %w", err)
	}
	p := &probe{c: c, req: reqW, reply: repR}
	p.run(warmSlices)
	p.times = nil
	return p, p.err
}

// close ends the child (its stdin closes) and waits for it.
func (p *probe) close() {
	p.req.Close()
	p.c.stop(os.Kill, 5*time.Second)
	p.reply.Close()
}

// slice runs one slice and returns how long the caller waited for it.
func (p *probe) slice() time.Duration {
	if p.err != nil {
		return 0
	}
	start := time.Now()
	var b [8]byte
	if _, err := p.req.Write(b[:1]); err != nil {
		p.err = fmt.Errorf("host probe: %w", err)
		return 0
	}
	if _, err := io.ReadFull(p.reply, b[:]); err != nil {
		p.err = fmt.Errorf("host probe: %w", err)
		return 0
	}
	p.times = append(p.times, ms(time.Duration(binary.LittleEndian.Uint64(b[:]))))
	p.last = time.Now()
	return p.last.Sub(start)
}

// run runs n slices.
func (p *probe) run(n int) {
	for i := 0; i < n; i++ {
		p.slice()
	}
}

// tick runs a slice when probeEvery has passed since the last one, and
// returns how long the caller waited.
func (p *probe) tick() time.Duration {
	if time.Since(p.last) < probeEvery {
		return 0
	}
	return p.slice()
}

// since returns the slice times recorded after mark = len(p.times).
func (p *probe) since(mark int) []float64 { return slices.Clone(p.times[mark:]) }

// probeScale is the factor that turns timings taken while the slices ran
// into timings at the reference speed: probeRefMS ÷ their median.
func probeScale(times []float64) (float64, error) {
	if len(times) == 0 {
		return 0, errors.New("the host probe ran no slice")
	}
	return probeRefMS / median(times), nil
}

// probeChild is the child's side: one slice per byte read from in, its
// duration written to out, until in closes.
func probeChild(in io.Reader, out io.Writer) error {
	w, err := newProbeWork()
	if err != nil {
		return err
	}
	defer w.close()
	var b [8]byte
	for {
		if _, err := io.ReadFull(in, b[:1]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		d, err := w.slice()
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(b[:], uint64(d))
		if _, err := out.Write(b[:]); err != nil {
			return err
		}
	}
}

// probeWork is what one slice runs, held by the child.
type probeWork struct {
	cols [][]float64 // a 4000×4 column-major matrix, like simweather's mirror
	dirs [][]float64
	u    []float64
	top  []float64
	next []int32 // a random cycle over 16 MiB
	at   int32
	ln   net.Listener
	conn net.Conn
	buf  []byte
}

// Parts of a slice, each about a quarter of it.
const (
	probeDirs   = 2    // scoring passes over the matrix, each with a top-32
	probeSteps  = 2000 // pointer-chase steps
	probeAllocs = 2000 // small slices allocated into a map
	probeEchoes = 16   // 512-byte loopback round trips
)

func newProbeWork() (*probeWork, error) {
	rng := rand.New(rand.NewSource(1))
	p := &probeWork{buf: make([]byte, 512), u: make([]float64, 4000), top: make([]float64, 0, 32)}
	for j := 0; j < 4; j++ {
		c := make([]float64, len(p.u))
		for i := range c {
			c[i] = rng.Float64()
		}
		p.cols = append(p.cols, c)
	}
	for k := 0; k < probeDirs; k++ {
		d := make([]float64, len(p.cols))
		for j := range d {
			d[j] = rng.Float64()
		}
		p.dirs = append(p.dirs, d)
	}
	// Sattolo's shuffle of the identity is one cycle through every entry.
	p.next = make([]int32, 4<<20)
	for i := range p.next {
		p.next[i] = int32(i)
	}
	for i := len(p.next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		p.next[i], p.next[j] = p.next[j], p.next[i]
	}
	var err error
	if p.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go func() {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	if p.conn, err = net.Dial("tcp", p.ln.Addr().String()); err != nil {
		p.ln.Close()
		return nil, err
	}
	return p, nil
}

// close stops the echo server; its goroutine ends when the connection does.
func (p *probeWork) close() {
	p.conn.Close()
	p.ln.Close()
}

// slice runs and times one slice.
func (p *probeWork) slice() (time.Duration, error) {
	start := time.Now()
	for _, d := range p.dirs {
		clear(p.u)
		for j, c := range p.cols {
			w := d[j]
			for i, v := range c {
				p.u[i] += w * v
			}
		}
		p.top = p.top[:0]
		for _, v := range p.u {
			if len(p.top) < cap(p.top) {
				p.top = append(p.top, v)
				continue
			}
			lo := 0
			for t := range p.top {
				if p.top[t] < p.top[lo] {
					lo = t
				}
			}
			p.top[lo] = max(p.top[lo], v)
		}
	}
	for k := 0; k < probeSteps; k++ {
		p.at = p.next[p.at]
	}
	m := make(map[int][]int, 64)
	for i := 0; i < probeAllocs; i++ {
		m[i] = make([]int, 16+i%32)
	}
	for k := 0; k < probeEchoes; k++ {
		if _, err := p.conn.Write(p.buf); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(p.conn, p.buf); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}
