package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// listenRe and metricsRe pick the bound addresses out of matchd's
// structured log: servers start on port 0, so the log line is the only
// place the port is published.
var (
	listenRe  = regexp.MustCompile(`(?m) msg=listening addr=(\S+)`)
	metricsRe = regexp.MustCompile(`(?m) msg="metrics listening" addr=(\S+)`)
)

// parseListening returns the serving address (and the metrics address,
// when the process has one) announced in a matchd log.
func parseListening(log []byte) (addr, metricsAddr string) {
	if m := listenRe.FindSubmatch(log); m != nil {
		addr = string(m[1])
	}
	if m := metricsRe.FindSubmatch(log); m != nil {
		metricsAddr = string(m[1])
	}
	return addr, metricsAddr
}

// proc is one matchd process under the harness.
type proc struct {
	name        string
	args        []string // flags other than -addr / -metrics-addr
	addr        string
	metricsAddr string
	logPath     string
	cmd         *exec.Cmd
	exited      chan struct{}
	// startToListen is how long the last start took from exec to the
	// listening line: recovery, replica bootstrap and index rebuild all
	// happen before matchd binds.
	startToListen time.Duration
}

// harness owns every process and directory a run creates.
type harness struct {
	bin     string // matchd binary
	dir     string // run directory: logs and WAL dirs
	metrics bool   // give every server a -metrics-addr
	procs   []*proc
}

func newHarness(bin, dir string, metrics bool) (*harness, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &harness{bin: bin, dir: dir, metrics: metrics}, nil
}

// walDir returns a fresh directory path for a process's write-ahead log.
func (h *harness) walDir(name string) string { return filepath.Join(h.dir, "wal-"+name) }

// start launches a matchd on a free loopback port and returns once it
// has logged its listening address.
func (h *harness) start(name string, args ...string) (*proc, error) {
	p := &proc{name: name, args: args, logPath: filepath.Join(h.dir, name+".log")}
	h.procs = append(h.procs, p)
	return p, h.launch(p)
}

// launch (re)starts p. A restarted process binds the address it had
// before, because the other processes of the topology were given it.
func (h *harness) launch(p *proc) error {
	addr := p.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	args := append([]string{"-addr", addr}, p.args...)
	if h.metrics {
		args = append(args, "-metrics-addr", "127.0.0.1:0")
	}
	// One log per start: the listening line searched for below must be
	// this start's, not the previous one's.
	logFile, err := os.Create(p.logPath)
	if err != nil {
		return err
	}
	defer logFile.Close()
	cmd := exec.Command(h.bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	// Own process group so the whole group can be killed, and a death
	// signal so no server outlives a benchmark that is itself killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", p.name, err)
	}
	p.cmd = cmd
	p.exited = make(chan struct{})
	go func(exited chan struct{}) {
		cmd.Wait()
		close(exited)
	}(p.exited)

	deadline := time.After(150 * time.Second)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		log, err := os.ReadFile(p.logPath)
		if err != nil {
			return err
		}
		a, m := parseListening(log)
		if a != "" && (!h.metrics || m != "") {
			p.addr, p.metricsAddr = a, m
			p.startToListen = time.Since(t0)
			return nil
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before listening:\n%s", p.name, tail(log, 5))
		case <-deadline:
			h.kill(p)
			return fmt.Errorf("%s did not listen within 150s:\n%s", p.name, tail(log, 5))
		case <-tick.C:
		}
	}
}

// kill sends SIGKILL to p's process group and waits until it has been
// reaped: a run that skips the wait races the next bind of the port.
func (h *harness) kill(p *proc) {
	if p.cmd == nil {
		return
	}
	syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.exited
}

// stopAll kills every process, verifies none leaked and no port stayed
// bound, and removes the run directory.
func (h *harness) stopAll() error {
	var errs []error
	for _, p := range h.procs {
		h.kill(p)
	}
	for _, p := range h.procs {
		if p.cmd == nil {
			continue
		}
		if err := syscall.Kill(p.cmd.Process.Pid, 0); !errors.Is(err, syscall.ESRCH) {
			errs = append(errs, fmt.Errorf("%s (pid %d) leaked: kill(0) = %v", p.name, p.cmd.Process.Pid, err))
		}
		for _, a := range []string{p.addr, p.metricsAddr} {
			if a == "" {
				continue
			}
			ln, err := net.Listen("tcp", a)
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: port still in use after exit: %w", p.name, err))
				continue
			}
			ln.Close()
		}
	}
	if err := os.RemoveAll(h.dir); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func tail(log []byte, lines int) string {
	parts := bytes.Split(bytes.TrimRight(log, "\n"), []byte("\n"))
	if len(parts) > lines {
		parts = parts[len(parts)-lines:]
	}
	return string(bytes.Join(parts, []byte("\n")))
}

// rssKB reads the resident set size of a live process.
func (p *proc) rssKB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no VmRSS in /proc status", p.name)
}

// cpuSeconds returns the user+system CPU time a process has consumed.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(data))
}

// parseProcStatCPU extracts utime+stime from a /proc/<pid>/stat line.
// The command name (field 2) may contain spaces and parentheses, so
// fields are counted from the last ')'.
func parseProcStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("malformed /proc stat: too few fields")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat: non-numeric cpu times")
	}
	const clockTicksPerSecond = 100 // USER_HZ, fixed at 100 on Linux
	return (utime + stime) / clockTicksPerSecond, nil
}
