package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/httpd"
)

// buildDir holds everything a run leaves behind (the darpa-serve binary,
// server logs, per-workload result files). It is inside the checkout and in
// .gitignore; the acceptance driver points CARGO_TARGET_DIR at the same name.
const buildDir = ".bench_build"

// warmupRequests is the fixed number of requests every freshly started server
// answers before it counts as set up: enough for the activation pool, the
// connection and the GC pacer to reach their steady state.
const warmupRequests = 100

// buildServer compiles the unmodified darpa-serve into buildDir.
func buildServer() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "darpa-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/darpa-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building darpa-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one running darpa-serve subprocess.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	exited  chan error
	gone    bool // the process has been waited for
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before darpa-serve binds it, so a lost race shows as a start-up
// failure, which startServer retries.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches darpa-serve (-replicas 1, no rate limit, no shedding,
// default GOMAXPROCS) on a free port and returns once /healthz answers 200.
func startServer(bin string) (*server, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := launch(bin)
		if err == nil {
			return s, nil
		}
		last = err
	}
	return nil, last
}

func launch(bin string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.CreateTemp(buildDir, "darpa-serve-*.log")
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-weights", weightsDir, "-detector", "yolite", "-replicas", "1")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		os.Remove(logf.Name())
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, logPath: logf.Name(), exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.exited:
			return nil, fmt.Errorf("darpa-serve exited during start-up: %v\n%s", err, s.takeLog())
		default:
		}
		res, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, res.Body)
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.kill()
	return nil, fmt.Errorf("darpa-serve not healthy after 20s\n%s", s.takeLog())
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop drains the server the way an operator would: SIGTERM, then wait for
// the process to finish its graceful shutdown and exit 0. The log file is
// removed on a clean exit and returned in the error otherwise.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return fmt.Errorf("signalling darpa-serve: %w", err)
	}
	select {
	case err := <-s.exited:
		s.gone = true
		if err != nil {
			return fmt.Errorf("darpa-serve did not drain cleanly: %v\n%s", err, s.takeLog())
		}
		os.Remove(s.logPath)
		return nil
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("darpa-serve ignored SIGTERM for 30s\n%s", s.takeLog())
	}
}

// kill ends the process without ceremony and waits for it. After a stop (or
// an earlier kill) it does nothing, so it can be deferred as the safety net.
func (s *server) kill() {
	if s.gone {
		return
	}
	s.cmd.Process.Kill()
	<-s.exited
	s.gone = true
}

// takeLog returns the captured server output and deletes the file.
func (s *server) takeLog() string {
	raw, _ := os.ReadFile(s.logPath)
	os.Remove(s.logPath)
	return "--- darpa-serve log ---\n" + string(raw)
}

// stats fetches /v1/stats.
func (s *server) stats(ctx context.Context, c *http.Client) (httpd.StatsPayload, error) {
	var p httpd.StatsPayload
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/stats", nil)
	if err != nil {
		return p, err
	}
	res, err := c.Do(req)
	if err != nil {
		return p, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return p, fmt.Errorf("/v1/stats: status %d", res.StatusCode)
	}
	return p, json.NewDecoder(res.Body).Decode(&p)
}
