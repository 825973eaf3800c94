package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	stdnet "net"
	"net/http"
	"time"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/service"
)

// apiPrefix is the network-scoped /v2 path every request runs under.
const apiPrefix = "/v2/networks/" + service.DefaultNetworkID

// daemon is an in-process delayd on a loopback listener: the same
// service.Server cmd/delayd mounts, reached only over HTTP.
type daemon struct {
	base    string
	state   *service.State
	api     *service.Server
	srv     *http.Server
	stopped chan struct{}
}

// startDaemon serves an empty admission state over the given fabric.
func startDaemon(servers []server.Server, analyzer analysis.Analyzer, shards int) (*daemon, error) {
	state, err := service.NewStateShards(servers, analyzer, shards)
	if err != nil {
		return nil, err
	}
	api, err := service.NewServer(service.Config{State: state})
	if err != nil {
		return nil, err
	}
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		base:    "http://" + ln.Addr().String(),
		state:   state,
		api:     api,
		srv:     &http.Server{Handler: api},
		stopped: make(chan struct{}),
	}
	go func() {
		defer close(d.stopped)
		_ = d.srv.Serve(ln) // returns ErrServerClosed after stop
	}()
	return d, nil
}

// stop shuts the listener down and waits for the serve loop to return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // a timed-out drain still closes below
	_ = d.srv.Close()
	<-d.stopped
}

// client is one kept-alive HTTP connection to the daemon. It is used by
// one goroutine at a time.
type client struct {
	base string
	hc   *http.Client
	// sent and recv count request and response body bytes.
	sent, recv int64
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call issues one request and returns the status and the whole body.
func (c *client) call(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	c.sent += int64(len(body))
	c.recv += int64(len(data))
	return resp.StatusCode, data, nil
}

// post marshals body and posts it; any answer but a 200 is an error. The
// callers time this call and decode the answer afterwards, so that the
// generator's own JSON decoding stays out of the latency.
func (c *client) post(path string, body any) ([]byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	status, data, err := c.call(http.MethodPost, path, raw)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, status, data)
	}
	return data, nil
}

// postJSON posts body and decodes a 200 answer into out.
func (c *client) postJSON(path string, body, out any) error {
	data, err := c.post(path, body)
	if err != nil {
		return err
	}
	return decode(data, out)
}

// getJSON fetches path and decodes a 200 answer into out.
func (c *client) getJSON(path string, out any) error {
	status, data, err := c.call(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, data)
	}
	return decode(data, out)
}

// decode unmarshals a response body the benchmark expects to be valid.
func decode(data []byte, out any) error {
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("decoding %.80q: %w", data, err)
	}
	return nil
}
