package faultfs

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/rankregret/rankregret/internal/xrand"
)

// Op names one seam operation for rule matching. Write and Sync rules match
// operations on files opened through the injector; Open, Rename, and Remove
// match the FS-level calls.
type Op string

const (
	OpOpen   Op = "open"
	OpWrite  Op = "write"
	OpSync   Op = "sync"
	OpRename Op = "rename"
	OpRemove Op = "remove"
	// OpAny matches every operation; the empty Op means the same.
	OpAny Op = "any"
)

// Errors a rule can inject, by script name. ENOSPC and EIO are the two
// transient disk faults production actually sees (full disk, failing
// device); both must leave the store degraded-but-serving rather than
// wedged-until-restart.
var errByName = map[string]error{
	"enospc": syscall.ENOSPC,
	"eio":    syscall.EIO,
	"none":   nil, // delay-only rules
}

// Rule is one scripted fault. A rule fires on operations matching Op and
// Path, after skipping the first After matches, at most Count times
// (0 = unlimited), each time with probability Prob (0 = always, seeded and
// deterministic). When it fires it sleeps Delay, then — for writes with
// Short > 0 — passes the first Short bytes through before failing, and
// returns Err (nil Err = delay only, the operation proceeds).
type Rule struct {
	Op    Op
	Path  string // substring of the target path; "" matches every path
	After int
	Count int
	Err   error
	Short int
	Prob  float64
	Delay time.Duration
}

// armed tracks one rule's live match/fire counters.
type armed struct {
	Rule
	seen  int
	fired int
}

// Injector wraps an FS and applies scripted faults to matching operations.
// It is safe for concurrent use; rule matching, counters, and the seeded
// probability stream are serialized under one mutex, so a given script and
// operation sequence always injects the same faults.
type Injector struct {
	inner FS

	mu    sync.Mutex
	rng   *xrand.Rand
	rules []*armed
	// injected counts faults fired.
	injected uint64
}

// New wraps inner with a fault injector. The seed drives probabilistic
// rules; deterministic rules (After/Count) ignore it.
func New(inner FS, seed int64) *Injector {
	if inner == nil {
		inner = Disk
	}
	return &Injector{inner: inner, rng: xrand.New(seed)}
}

// Arm appends rules to the active script. Rules are consulted in arming
// order; the first matching rule decides an operation's fate.
func (in *Injector) Arm(rules ...Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range rules {
		rr := r
		in.rules = append(in.rules, &armed{Rule: rr})
	}
}

// Clear disarms every rule — the injected fault "clears", and all
// operations pass through again.
func (in *Injector) Clear() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = nil
}

// decide consults the script for one operation. It returns the rule's
// injected error (nil = proceed), a sleep to apply first, and for torn
// writes the byte count to pass through.
func (in *Injector) decide(op Op, path string) (err error, delay time.Duration, short int, torn bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.Op != "" && r.Op != OpAny && r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			return nil, 0, 0, false
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue // exhausted; later rules may still apply
		}
		if r.Prob > 0 && in.rng.Float64() >= r.Prob {
			return nil, 0, 0, false
		}
		r.fired++
		in.injected++
		return r.Err, r.Delay, r.Short, r.Short > 0
	}
	return nil, 0, 0, false
}

// OpenFile implements FS. Files opened through a faulted open never exist;
// files opened successfully route their writes and syncs back through the
// injector.
func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	err, delay, _, _ := in.decide(OpOpen, name)
	if delay > 0 {
		time.Sleep(delay)
	}
	if err != nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: err}
	}
	f, err := in.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, path: name, f: f}, nil
}

// Rename implements FS.
func (in *Injector) Rename(oldpath, newpath string) error {
	err, delay, _, _ := in.decide(OpRename, newpath)
	if delay > 0 {
		time.Sleep(delay)
	}
	if err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	return in.inner.Rename(oldpath, newpath)
}

// Remove implements FS.
func (in *Injector) Remove(name string) error {
	err, delay, _, _ := in.decide(OpRemove, name)
	if delay > 0 {
		time.Sleep(delay)
	}
	if err != nil {
		return &os.PathError{Op: "remove", Path: name, Err: err}
	}
	return in.inner.Remove(name)
}

// injFile routes a file's writes and syncs through the injector's script.
type injFile struct {
	in   *Injector
	path string
	f    File
}

func (f *injFile) Write(p []byte) (int, error) {
	err, delay, short, torn := f.in.decide(OpWrite, f.path)
	if delay > 0 {
		time.Sleep(delay)
	}
	if torn {
		// Torn write: some prefix of the buffer reaches the disk, then the
		// device fails — the exact shape of a crash mid-append.
		if short > len(p) {
			short = len(p)
		}
		n, werr := f.f.Write(p[:short])
		if werr != nil {
			return n, werr
		}
		if err == nil {
			err = syscall.EIO
		}
		return n, &os.PathError{Op: "write", Path: f.path, Err: err}
	}
	if err != nil {
		return 0, &os.PathError{Op: "write", Path: f.path, Err: err}
	}
	return f.f.Write(p)
}

func (f *injFile) Sync() error {
	err, delay, _, _ := f.in.decide(OpSync, f.path)
	if delay > 0 {
		time.Sleep(delay)
	}
	if err != nil {
		return &os.PathError{Op: "sync", Path: f.path, Err: err}
	}
	return f.f.Sync()
}

func (f *injFile) Close() error { return f.f.Close() }

// ParseScript parses the compact fault-script DSL used by rrmd's
// -fault-inject flag and the chaos harness. Rules are separated by ';',
// fields within a rule by ',', each field a key=value pair:
//
//	op=sync,err=enospc,after=10,count=5
//	op=write,path=wal-,err=eio,short=5;op=sync,delay=50ms,err=none
//
// Keys: op (open|write|sync|rename|remove|any), path (substring), after,
// count, err (enospc|eio|none), short (torn-write byte count), prob
// ([0,1], seeded), delay (Go duration). Unknown keys are errors, so typos
// fail fast instead of silently arming nothing.
func ParseScript(s string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var r Rule
		for _, field := range strings.Split(part, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
			if !ok {
				return nil, fmt.Errorf("faultfs: bad script field %q (want key=value)", field)
			}
			var err error
			switch k {
			case "op":
				switch Op(v) {
				case OpOpen, OpWrite, OpSync, OpRename, OpRemove, OpAny:
					r.Op = Op(v)
				default:
					return nil, fmt.Errorf("faultfs: unknown op %q (want %v)", v, knownOps())
				}
			case "path":
				r.Path = v
			case "after":
				r.After, err = strconv.Atoi(v)
			case "count":
				r.Count, err = strconv.Atoi(v)
			case "err":
				e, ok := errByName[v]
				if !ok {
					return nil, fmt.Errorf("faultfs: unknown err %q (want enospc, eio, or none)", v)
				}
				r.Err = e
			case "short":
				r.Short, err = strconv.Atoi(v)
			case "prob":
				r.Prob, err = strconv.ParseFloat(v, 64)
				if err == nil && (r.Prob < 0 || r.Prob > 1) {
					return nil, fmt.Errorf("faultfs: prob %v outside [0,1]", r.Prob)
				}
			case "delay":
				r.Delay, err = time.ParseDuration(v)
			default:
				return nil, fmt.Errorf("faultfs: unknown script key %q", k)
			}
			if err != nil {
				return nil, fmt.Errorf("faultfs: bad %s value %q: %w", k, v, err)
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("faultfs: empty fault script")
	}
	return rules, nil
}

func knownOps() []Op {
	ops := []Op{OpOpen, OpWrite, OpSync, OpRename, OpRemove, OpAny}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	return ops
}
