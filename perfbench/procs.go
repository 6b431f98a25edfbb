package main

// Server subprocesses: semkgd in its serving and shard-server roles,
// started from the binary run.sh built, reached over loopback, and always
// stopped and waited for before the benchmark exits.

import (
	"bufio"
	"fmt"
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

type proc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{}
}

var (
	procsMu sync.Mutex
	procs   []*proc
)

// startServer starts semkgd with args plus a loopback listen address and
// returns once the server has announced its address (semkgd writes the
// address file only after its inputs are loaded) and answers /healthz.
func startServer(e *env, name string, args ...string) (*proc, error) {
	addrFile := filepath.Join(e.work, name+".addr")
	_ = os.Remove(addrFile)
	logFile, err := os.Create(filepath.Join(e.work, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	args = append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd := exec.Command(e.semkgd, args...)
	cmd.Dir = e.work
	// Should the benchmark die without stopping its servers, the kernel
	// kills them.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(p.done) }()
	procsMu.Lock()
	procs = append(procs, p)
	procsMu.Unlock()

	deadline := time.Now().Add(90 * time.Second)
	for {
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s exited during start-up (see its log)", name)
		default:
		}
		if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
			p.url = "http://" + strings.TrimSpace(string(b))
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s did not come up within 90s", name)
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := http.Get(p.url + "/healthz")
	if err != nil {
		return nil, fmt.Errorf("%s health check: %w", name, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s health check: %s", name, resp.Status)
	}
	return p, nil
}

// stop kills the process and waits for it to end.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

// stopAll stops every server still running.
func stopAll() {
	procsMu.Lock()
	defer procsMu.Unlock()
	for _, p := range procs {
		p.stop()
	}
	procs = nil
}

// stopOne stops p and forgets it.
func stopOne(p *proc) {
	procsMu.Lock()
	defer procsMu.Unlock()
	for i, q := range procs {
		if q == p {
			procs = append(procs[:i], procs[i+1:]...)
			break
		}
	}
	p.stop()
}

// rssMB reads the process's resident set from /proc.
func (p *proc) rssMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", p.cmd.Process.Pid)
}
