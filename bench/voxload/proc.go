package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one voxserve process the harness started.
type child struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	log  *os.File
	done chan struct{} // closed once Wait has returned
}

// live tracks every running child so that a failure or a signal anywhere
// can stop them all before the harness exits.
var live struct {
	sync.Mutex
	procs map[*child]struct{}
}

func killAllChildren() {
	live.Lock()
	procs := make([]*child, 0, len(live.procs))
	for c := range live.procs {
		procs = append(procs, c)
	}
	live.Unlock()
	for _, c := range procs {
		c.kill()
	}
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed again before voxserve binds it, which leaves a window for another
// process to take it; startServer reports that as a failed start.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches voxserve with args on an ephemeral loopback port,
// its output appended to logPath, and returns once GET /healthz answers
// "ok". ready is the time from exec to that answer.
func startServer(bin string, args []string, logPath string) (c *child, ready time.Duration, err error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	c = &child{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	live.Lock()
	if live.procs == nil {
		live.procs = map[*child]struct{}{}
	}
	live.procs[c] = struct{}{}
	live.Unlock()
	go func() {
		cmd.Wait()
		close(c.done)
	}()

	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := start.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			c.release()
			return nil, 0, fmt.Errorf("voxserve exited before becoming ready (see %s)", logPath)
		default:
		}
		resp, err := client.Get(c.base + "/healthz")
		if err == nil {
			var h struct {
				Status string `json:"status"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK && h.Status == "ok" {
				return c, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.kill()
	return nil, 0, fmt.Errorf("voxserve not ready after 60s (see %s)", logPath)
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) release() {
	live.Lock()
	delete(live.procs, c)
	live.Unlock()
	c.log.Close()
}

// stop shuts the server down gracefully (SIGTERM, then SIGKILL after 10 s)
// and waits for it to exit.
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
	}
	c.release()
}

// kill is the crash: SIGKILL, no drain, no WAL close.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.done
	c.release()
}

// cpuSeconds returns the user+system CPU time the process has used, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s on Linux).
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

func parseStatCPU(data []byte) (float64, error) {
	// The command name (field 2) is parenthesised and may hold spaces;
	// the numbered fields resume after the last ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times")
	}
	const clockTick = 100
	return float64(utime+stime) / clockTick, nil
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}

func parseVmHWM(data []byte) (float64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
