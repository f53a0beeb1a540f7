package main

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
)

// runMainEnv makes the test binary act as netserve: TestMain hands its
// arguments to run and exits with run's code.
const runMainEnv = "NETSERVE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// TestSigtermOnServingLineDrains sends SIGTERM the moment netserve
// reports that it is serving. The signal handler must already be in
// place by then, so the process drains and exits 0 instead of dying of
// the signal.
func TestSigtermOnServingLineDrains(t *testing.T) {
	for i := 0; i < 3; i++ {
		cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-devices", "sim-xavier")
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		signalled := false
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			out.WriteString(sc.Text() + "\n")
			if !signalled && strings.HasPrefix(sc.Text(), "netserve: serving on") {
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
				signalled = true
			}
		}
		err = cmd.Wait()
		if !signalled {
			t.Fatalf("netserve never reported serving (exit %v):\n%s%s", err, out.String(), stderr.String())
		}
		if err != nil {
			t.Fatalf("netserve ended with %v after a SIGTERM on its serving line, want a clean drain:\n%s%s",
				err, out.String(), stderr.String())
		}
		if !strings.Contains(out.String(), "netserve: drained") {
			t.Fatalf("no drain line in netserve's output:\n%s%s", out.String(), stderr.String())
		}
	}
}
