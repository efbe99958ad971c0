package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"sync"
	"syscall"
	"time"
)

// proc is a child process whose stdout is captured (and echoed) so
// startup banners and final summary lines can be parsed.
type proc struct {
	cmd  *exec.Cmd
	mu   sync.Mutex
	buf  bytes.Buffer
	done chan struct{} // closed once the child has been waited for
	err  error         // cmd.Wait's result; read only after done
}

// Every daemon's banner ends "… on 127.0.0.1:PORT".
var addrRe = regexp.MustCompile(`on (127\.0\.0\.1:\d+)`)

// The supervisor's books: every child started and every scratch
// directory made, so that no exit path leaves one behind.
var (
	supervisor sync.Mutex
	procs      []*proc
	tempDirs   []string
	stopping   bool
)

// start launches a child with captured stdout.
func start(bin string, args ...string) *proc {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	check(err)
	p := &proc{cmd: cmd, done: make(chan struct{})}
	supervisor.Lock()
	if stopping {
		supervisor.Unlock()
		select {} // reap is running on another goroutine; the process is about to exit
	}
	err = cmd.Start()
	if err == nil {
		procs = append(procs, p)
	}
	supervisor.Unlock()
	check(err)
	go func() {
		buf := make([]byte, 4096)
		for {
			n, err := out.Read(buf)
			if n > 0 {
				p.mu.Lock()
				p.buf.Write(buf[:n])
				p.mu.Unlock()
				os.Stdout.Write(buf[:n]) //nolint:errcheck
			}
			if err != nil {
				break
			}
		}
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p
}

// boot is start plus waiting for the listen-address banner.
func boot(bin string, args ...string) *proc {
	p := start(bin, args...)
	deadline := time.Now().Add(10 * time.Second)
	for addrRe.FindStringSubmatch(p.output()) == nil {
		if time.Now().After(deadline) || p.exited() {
			fatalf("%s did not report a listen address:\n%s", bin, p.output())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return p
}

// addr is the address a booted child listens on.
func (p *proc) addr() string { return addrRe.FindStringSubmatch(p.output())[1] }

// url is the base URL a booted child serves.
func (p *proc) url() string { return "http://" + p.addr() }

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buf.String()
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// wait gives the child d to exit on its own and returns its exit
// status; a child still running after d is killed.
func (p *proc) wait(d time.Duration) error {
	select {
	case <-p.done:
		return p.err
	case <-time.After(d):
		p.kill()
		return fmt.Errorf("still running after %v", d)
	}
}

// kill is SIGKILL: no goodbye, no flush — the crash the scenarios inject.
func (p *proc) kill() {
	p.cmd.Process.Kill() //nolint:errcheck // already exited
	<-p.done
}

// stop is the graceful shutdown: SIGTERM, then the daemon's own drain
// must bring it to exit 0 within 10 s.
func (p *proc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	return p.wait(10 * time.Second)
}

// tempDir makes the scenario's scratch directory, removed by cleanup.
func tempDir() string {
	dir, err := os.MkdirTemp("", "smoke-"+scenario+"-*")
	check(err)
	supervisor.Lock()
	tempDirs = append(tempDirs, dir)
	supervisor.Unlock()
	return dir
}

// reap kills every child still running and stops new ones from being
// started.
func reap() {
	supervisor.Lock()
	stopping = true
	children := procs
	supervisor.Unlock()
	for _, p := range children {
		p.kill()
	}
}

// cleanup is the end of a run that did not fail an assertion: children
// reaped, scratch directories removed.
func cleanup() {
	reap()
	supervisor.Lock()
	defer supervisor.Unlock()
	for _, dir := range tempDirs {
		os.RemoveAll(dir)
	}
}

func get(url string) string {
	resp, err := http.Get(url)
	check(err)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	check(err)
	if resp.StatusCode != http.StatusOK {
		fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return string(body)
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func logf(format string, args ...any) {
	fmt.Printf("smoke "+scenario+": "+format+"\n", args...)
}

// fatalf fails the run: children are reaped, the scratch directory is
// left in place for inspection.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "smoke "+scenario+": "+format+"\n", args...)
	reap()
	os.Exit(1)
}
