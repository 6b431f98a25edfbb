package main

// The traced dist-2shard run's loopback relay: an HTTP proxy between the
// coordinator and one shard server that counts the bytes of every shard
// request and response and times each exchange from the request's arrival
// to the last byte of its streamed response.

import (
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

type relay struct {
	url string
	srv *http.Server

	mu    sync.Mutex
	bytes int64
	rts   []float64 // ms per exchange
}

// countingBody counts a request body as the proxy's transport reads it,
// possibly from another goroutine.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c countingBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n.Add(int64(n))
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// Flush forwards streamed NDJSON lines as they arrive.
func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func startRelay(target string) (*relay, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{url: "http://" + ln.Addr().String()}
	proxy := httputil.NewSingleHostReverseProxy(u)
	proxy.FlushInterval = -1
	// The coordinator cancels a shard stream once it holds the matches it
	// needs; the proxy would log each such cancellation as an error.
	proxy.ErrorLog = log.New(io.Discard, "", 0)
	r.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		var in atomic.Int64
		if req.Body != nil {
			req.Body = countingBody{req.Body, &in}
		}
		cw := &countingWriter{ResponseWriter: w}
		proxy.ServeHTTP(cw, req)
		rt := ms(time.Since(start))
		r.mu.Lock()
		r.bytes += in.Load() + cw.n
		r.rts = append(r.rts, rt)
		r.mu.Unlock()
	})}
	go func() { _ = r.srv.Serve(ln) }()
	return r, nil
}

func (r *relay) reset() {
	r.mu.Lock()
	r.bytes, r.rts = 0, nil
	r.mu.Unlock()
}

func (r *relay) read() (int64, []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes, append([]float64(nil), r.rts...)
}

func (r *relay) close() { _ = r.srv.Close() }
