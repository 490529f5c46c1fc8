package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"howsim/internal/service"
)

// Only this file calls into the service package: it renders the
// /v1/simulate body of a direct run and owns the in-process howsimd.

// renderBody renders a direct run's output as the /v1/simulate
// response body, byte for byte as howsimd serves it.
func renderBody(s *spec, out simOutput, breakdown string) ([]byte, error) {
	resp := service.SimResponse{
		Key:            s.key,
		Config:         s.canonical,
		Machine:        s.machine,
		Task:           s.task,
		Arch:           s.arch,
		Disks:          s.disks,
		DatasetMB:      s.datasetMB,
		ElapsedSeconds: out.elapsedSeconds,
		Details:        out.details,
		FaultReport:    out.faultReport,
		Breakdown:      breakdown,
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// defaultCacheEntries is the result-cache size of a default howsimd.
const defaultCacheEntries = service.DefaultCacheEntries

// server is an in-process howsimd with the default service.Config on
// a loopback listener.
type server struct {
	svc  *service.Server
	http *http.Server
	done chan error // Serve's return value
	url  string
}

// startServer starts howsimd and returns once /healthz answers OK.
func startServer(ctx context.Context, client *http.Client) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	svc := service.New(service.Config{})
	s := &server{
		svc:  svc,
		http: &http.Server{Handler: svc.Handler()},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	for {
		if err := ctx.Err(); err != nil {
			s.stop()
			return nil, fmt.Errorf("waiting for /healthz: %w", err)
		}
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener down, drains the service and waits for
// Serve to return.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // a drain overrun still closes the listener
	s.svc.Close()
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "howbench: serve:", err)
	}
}

// statsz reads the service's counters from GET /statsz.
func (s *server) statsz(client *http.Client) (map[string]int64, error) {
	resp, err := client.Get(s.url + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if n, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[name] = n
		}
	}
	return out, nil
}

// cacheHeader is the response header naming how howsimd served a
// request: hit, miss or dedup.
const cacheHeader = "X-Howsim-Cache"
