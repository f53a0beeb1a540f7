package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one netserve process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	addr string
	log  bytes.Buffer  // stdout and stderr, for failure reports
	done chan struct{} // closed when the output copier has finished
	http *http.Client
}

// clockTicks is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; 100 on every mainstream Linux build.
const clockTicks = 100

// startServer execs netserve on an ephemeral loopback port and returns
// once /readyz answers 200.
func startServer(bin string, args []string) (*server, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-seed", strconv.Itoa(serverSeed)}, args...)
	s := &server{cmd: exec.Command(bin, args...), done: make(chan struct{}),
		http: &http.Client{Timeout: 30 * time.Second}}
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	// The server dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.cmd.Stderr = s.cmd.Stdout
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting netserve: %w", err)
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			s.log.WriteString(line + "\n")
			if rest, ok := strings.CutPrefix(line, "netserve: serving on "); ok {
				addrCh <- strings.Fields(rest)[0]
			}
		}
		io.Copy(io.Discard, out)
	}()
	select {
	case s.addr = <-addrCh:
	case <-s.done:
		s.cmd.Wait()
		return nil, fmt.Errorf("netserve exited before serving:\n%s", s.log.String())
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("netserve did not start within 60s:\n%s", s.log.String())
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := s.http.Get(s.url("/readyz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("netserve never became ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

// stop drains the server with SIGTERM and waits for it to exit; a server
// that will not drain within 30s is killed.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	exited := make(chan error, 1)
	go func() { <-s.done; exited <- s.cmd.Wait() }()
	select {
	case err := <-exited:
		// netserve installs its signal handler just after it starts
		// serving; a server stopped within that window dies of the
		// SIGTERM itself, which is still the stop that was asked for.
		if ws, ok := s.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
		if err != nil {
			return fmt.Errorf("netserve drain: %w\n%s", err, s.log.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-exited
		return fmt.Errorf("netserve did not drain within 30s")
	}
}

// kill ends the server without a drain, for error paths.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
	s.cmd.Wait()
}

// cpuSeconds is the server's user+sys CPU time so far, all threads.
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields count from after its ')'.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return (utime + stime) / clockTicks, nil
}

// peakRSSMB is the server's VmHWM, its peak resident set, in MiB.
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// metrics scrapes /metrics and sums every series of a family over its
// labels.
func (s *server) metrics() (map[string]float64, error) {
	resp, err := s.http.Get(s.url("/metrics"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// post sends one plan request outside the timed phase (set-up traffic)
// and returns its status and body.
func (s *server) post(body []byte) (int, []byte, error) {
	resp, err := s.http.Post(s.url("/v1/plan"), "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
