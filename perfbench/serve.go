package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"magiccounting/internal/durable"
	"magiccounting/internal/server"
)

// served is one in-process server: a server.Service on a durable data
// directory behind server.NewHandler on a loopback listener.
type served struct {
	svc  *server.Service
	srv  *http.Server
	url  string
	info *durable.RecoveryInfo
	// handler times every request inside the handler (nil unless the
	// run is traced).
	handler *handlerTimer
	served  chan error
	once    sync.Once
}

// serviceConfig is mcserved's default configuration with the given
// snapshot cadence: the benchmark passes mcserved's own default, the
// package tests a small one.
func serviceConfig(snapshotEvery int) server.Config {
	return server.Config{
		Fsync:         durable.FsyncAlways,
		SnapshotEvery: snapshotEvery,
	}
}

// startServer opens dir (recovering whatever it holds) and serves it.
func startServer(dir string, cfg server.Config, timed bool) (*served, error) {
	svc := server.New(cfg)
	info, err := svc.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close(context.Background())
		return nil, err
	}
	s := &served{svc: svc, url: "http://" + ln.Addr().String(), info: info, served: make(chan error, 1)}
	h := server.NewHandler(svc)
	if timed {
		s.handler = &handlerTimer{next: h}
		h = s.handler
	}
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener, waits for in-flight handlers and the serve
// loop, and closes the service (writing its final snapshot).
func (s *served) stop() error {
	var err error
	s.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shut := s.srv.Shutdown(ctx)
		serveErr := <-s.served
		if errors.Is(serveErr, http.ErrServerClosed) {
			serveErr = nil
		}
		err = errors.Join(shut, serveErr, s.svc.Close(ctx))
	})
	return err
}

// handlerTimer records how long the server's handler spent on each
// request, by route.
type handlerTimer struct {
	next   http.Handler
	on     atomic.Bool
	mu     sync.Mutex
	byPath map[string][]time.Duration
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(start)
	h.mu.Lock()
	if h.byPath == nil {
		h.byPath = make(map[string][]time.Duration)
	}
	h.byPath[r.URL.Path] = append(h.byPath[r.URL.Path], d)
	h.mu.Unlock()
}

// take returns and clears the recorded durations of one route.
func (h *handlerTimer) take(path string) []time.Duration {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	d := h.byPath[path]
	delete(h.byPath, path)
	return d
}

// client is the load generator's HTTP side: at most two connections,
// one per closed-loop client.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, url: url}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// post sends one JSON request and decodes a 200 response into out.
func (c *client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// copyDir copies the regular files under src into dst: the bytes a
// kill -9 would leave on disk, since every acknowledged append was
// fsynced before its acknowledgement.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}
