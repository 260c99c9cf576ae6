package main

import (
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
)

// buildServer compiles cmd/p3pserver from the checkout the benchmark
// runs in, so the numbers are the numbers of this source tree. go build
// is a no-op when the binary is current.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "bin", "p3pserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/p3pserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/p3pserver: %v\n%s", err, out)
	}
	return bin, nil
}

// child is one p3pserver process on loopback with its own empty sites
// directory and durable directory.
type child struct {
	bin, dir, addr string
	cmd            *exec.Cmd
	log            *os.File
}

// launch starts a p3pserver under dir (which holds its sites/, state/
// and log) and waits until /readyz answers. Launching again on the same
// dir recovers whatever the previous process made durable.
func launch(bin, dir string) (*child, error) {
	for _, sub := range []string{"sites", "state"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	// Reserve a free loopback port by binding and releasing it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.OpenFile(filepath.Join(dir, "server.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-addr="+addr,
		"-sites-dir="+filepath.Join(dir, "sites"),
		"-durable="+filepath.Join(dir, "state"),
		"-fsync=always")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &child{bin: bin, dir: dir, addr: addr, cmd: cmd, log: logf}
	if err := c.waitReady(10 * time.Second); err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

func (c *child) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if k, err := dial(c.addr); err == nil {
			status, _, err := k.send("GET", "/readyz")
			k.close()
			if err == nil && status == 200 {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	tail, _ := os.ReadFile(filepath.Join(c.dir, "server.log"))
	return fmt.Errorf("p3pserver on %s not ready after %s:\n%s", c.addr, limit, tail)
}

// kill is kill -9 followed by a wait: the process gets no chance to
// checkpoint or flush, so what a relaunch finds is what it had made
// durable before each acknowledgement (the OS page cache survives; this
// is a process-crash check, not a power-loss check).
func (c *child) kill() {
	if c.cmd != nil && c.cmd.Process != nil {
		c.cmd.Process.Signal(syscall.SIGKILL)
		c.cmd.Wait()
		c.cmd = nil
	}
	if c.log != nil {
		c.log.Close()
		c.log = nil
	}
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc on every
// architecture Go supports.
const clockTick = 100

// cpuMillis returns the child's user+system CPU time so far, from
// fields 14 and 15 of /proc/<pid>/stat.
func (c *child) cpuMillis() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat format")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat format")
	}
	return (ut + st) * 1000 / clockTick, nil
}

// peakRSSMB returns the child's VmHWM (peak resident set) in MiB.
func (c *child) peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// selfCPUMillis is the generator's own user+system CPU time.
func selfCPUMillis() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1000 + float64(t.Usec)/1000 }
	return tv(ru.Utime) + tv(ru.Stime)
}
