package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one rrmd subprocess listening on a loopback port.
type daemon struct {
	*child
	args  []string
	base  string // http://127.0.0.1:port
	pprof string // pprof base URL, "" when not enabled
	logf  *os.File
}

// child is one subprocess of the run: an rrmd or the host probe.
type child struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been waited for
}

// reaper tracks every subprocess and temp dir a run creates, so each exit
// path — normal return, error, or SIGINT/SIGTERM — stops and removes them.
var reaper struct {
	sync.Mutex
	children map[*child]bool
	dirs     map[string]bool
}

// startChild starts cmd, which the kernel kills if this process dies
// without reaping it, and hands it to the reaper.
func startChild(cmd *exec.Cmd) (*child, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(c.exited)
	}()
	reaper.Lock()
	if reaper.children == nil {
		reaper.children = map[*child]bool{}
	}
	reaper.children[c] = true
	reaper.Unlock()
	return c, nil
}

// stop sends sig, kills the child if it has not exited within grace, and
// waits for it to end.
func (c *child) stop(sig os.Signal, grace time.Duration) {
	c.cmd.Process.Signal(sig)
	select {
	case <-c.exited:
	case <-time.After(grace):
		c.cmd.Process.Kill()
		<-c.exited
	}
	reaper.Lock()
	delete(reaper.children, c)
	reaper.Unlock()
}

// tempDir makes a temp dir the reaper removes at exit.
func tempDir(pattern string) (string, error) {
	dir, err := os.MkdirTemp("", pattern)
	if err != nil {
		return "", err
	}
	reaper.Lock()
	defer reaper.Unlock()
	if reaper.dirs == nil {
		reaper.dirs = map[string]bool{}
	}
	reaper.dirs[dir] = true
	return dir, nil
}

func removeTempDir(dir string) {
	reaper.Lock()
	delete(reaper.dirs, dir)
	reaper.Unlock()
	os.RemoveAll(dir)
}

// reapAll kills every live subprocess, waits for each to end, and removes
// every temp dir.
func reapAll() {
	reaper.Lock()
	cs := make([]*child, 0, len(reaper.children))
	for c := range reaper.children {
		cs = append(cs, c)
	}
	dirs := sortedKeys(reaper.dirs)
	reaper.Unlock()
	for _, c := range cs {
		c.cmd.Process.Kill()
		<-c.exited
	}
	for _, dir := range dirs {
		os.RemoveAll(dir)
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon runs rrmd on a free loopback port with the given extra flags
// (and a pprof listener when withPprof), logging into dir, and waits until
// /healthz answers.
func startDaemon(rrmd, dir string, extra []string, withPprof bool) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, extra...)
	pprofBase := ""
	if withPprof {
		pp, err := freePort()
		if err != nil {
			return nil, err
		}
		args = append(args, "-pprof-addr", "127.0.0.1:"+strconv.Itoa(pp))
		pprofBase = "http://127.0.0.1:" + strconv.Itoa(pp)
	}
	logf, err := os.Create(filepath.Join(dir, "rrmd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(rrmd, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	c, err := startChild(cmd)
	if err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting rrmd: %w", err)
	}
	d := &daemon{child: c, args: args, base: "http://127.0.0.1:" + strconv.Itoa(port), pprof: pprofBase, logf: logf}
	if err := d.awaitHealthy(30 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) awaitHealthy(limit time.Duration) error {
	probe := newClient(1)
	defer probe.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("rrmd exited during start-up: %s", d.logTail())
		default:
		}
		status, _, _, err := call(context.Background(), probe, http.MethodGet, d.base+"/healthz", nil, "")
		if err == nil && status == http.StatusOK {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("rrmd not healthy after %s: %s", limit, d.logTail())
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logf.Name())
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not exited
// within 10s, and waits for it to end.
func (d *daemon) stop() {
	d.child.stop(syscall.SIGTERM, 10*time.Second)
	d.logf.Close()
}

// hwmRSS is the daemon's lifetime resident high-water mark in MiB.
func (d *daemon) hwmRSS() (float64, error) {
	kib, err := procStatusKiB(strconv.Itoa(d.cmd.Process.Pid), "VmHWM")
	return kib / 1024, err
}

// memStats reads the daemon's cumulative allocated bytes and GC count from
// its pprof heap profile, whose text form ends with runtime.MemStats.
func (d *daemon) memStats(ctx context.Context, c *http.Client) (totalAlloc, numGC float64, err error) {
	if d.pprof == "" {
		return 0, 0, errors.New("rrmd runs without a pprof listener")
	}
	_, body, _, err := call(ctx, c, http.MethodGet, d.pprof+"/debug/pprof/allocs?debug=1", nil, "")
	if err != nil {
		return 0, 0, err
	}
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		for name, dst := range map[string]*float64{"# TotalAlloc = ": &totalAlloc, "# NumGC = ": &numGC} {
			if v, ok := strings.CutPrefix(line, name); ok {
				if *dst, err = strconv.ParseFloat(strings.TrimSpace(v), 64); err != nil {
					return 0, 0, fmt.Errorf("parsing pprof %q: %w", line, err)
				}
				found++
			}
		}
	}
	if found != 2 {
		return 0, 0, errors.New("pprof allocs profile lacks TotalAlloc or NumGC")
	}
	return totalAlloc, numGC, nil
}

// newClient returns an HTTP client holding at most conns connections to the
// daemon.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// call sends one request and reads the whole reply, returning its status,
// body, and the time from the send to the last byte read. A non-empty id is
// sent as X-Request-Id.
func call(ctx context.Context, c *http.Client, method, url string, body []byte, id string) (int, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, time.Since(start), err
}

// getJSON fetches url and decodes a 200 reply into out.
func getJSON(ctx context.Context, c *http.Client, url string, out any) error {
	status, body, _, err := call(ctx, c, http.MethodGet, url, nil, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, status, body)
	}
	return json.Unmarshal(body, out)
}
