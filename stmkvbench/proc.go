package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"memtx/internal/kvload"
)

// daemon is one stmkvd child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	metrics string // -serve-metrics address, "" when off
	logf    *os.File
	exited  chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon launches bin with the workload's flags (plus -wal-dir when
// dataDir is set) and waits until it answers PING.
func startDaemon(bin string, flags []string, dataDir, logPath string, withMetrics bool) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr}, flags...)
	if dataDir != "" {
		args = append(args, "-wal-dir", dataDir)
	}
	d := &daemon{addr: addr, exited: make(chan struct{})}
	if withMetrics {
		if d.metrics, err = freePort(); err != nil {
			return nil, err
		}
		args = append(args, "-serve-metrics", d.metrics)
	}
	if d.logf, err = os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, err
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = d.logf
	d.cmd.Stderr = d.logf
	// Should the benchmark die without cleaning up, the server goes too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		d.logf.Close()
		return nil, fmt.Errorf("start stmkvd: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is the kill we sent
		close(d.exited)
	}()
	if err := d.waitReady(60 * time.Second); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// waitReady polls until the daemon answers PING (and, with metrics on,
// until the metrics endpoint accepts connections).
func (d *daemon) waitReady(limit time.Duration) error {
	end := time.Now().Add(limit)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("stmkvd exited during start-up (see %s)", d.logf.Name())
		default:
		}
		if c, err := kvload.Dial(d.addr); err == nil {
			err = c.Ping()
			c.Close()
			if err == nil && (d.metrics == "" || dialable(d.metrics)) {
				return nil
			}
		}
		if time.Now().After(end) {
			return fmt.Errorf("stmkvd not answering on %s after %v", d.addr, limit)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func dialable(addr string) bool {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return false
	}
	c.Close()
	return true
}

// kill SIGKILLs the daemon and waits until it has exited.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.exited
	d.logf.Close()
}

// cpuTicks returns the process's user+system CPU in clock ticks.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+2:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return u + s, nil
}

// clockTick is the kernel's USER_HZ, fixed at 100 on Linux.
const clockTick = 10 * time.Millisecond

// statusKB reads one "Name: N kB" field of /proc/<pid>/status.
func statusKB(pid int, field string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, field+":") {
			fs := strings.Fields(line[len(field)+1:])
			if len(fs) > 0 {
				return strconv.ParseInt(fs[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// fsType names the filesystem holding path, from /proc/mounts.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
