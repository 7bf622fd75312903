package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"time"

	"lpvs/internal/client"
	"lpvs/internal/obs/audit"
	"lpvs/internal/router"
	"lpvs/internal/server"
	"lpvs/internal/shard"
)

// daemon is one in-process server or router on a loopback listener.
type daemon struct {
	srv     *server.Server // nil for a router
	handler http.Handler
	http    *http.Server
	url     string
}

func serve(h http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	return &daemon{handler: h, http: hs, url: "http://" + ln.Addr().String()}, nil
}

func (d *daemon) close() {
	d.http.Close()
	if d.srv != nil {
		d.srv.Close()
	}
}

// cluster is a booted deployment: a standalone edge daemon, or a router
// in front of shard daemons. front is what devices talk to.
type cluster struct {
	front  *daemon
	shards []*daemon // empty for a standalone daemon
	rt     *router.Router
	smap   *shard.Map
	// auditPath is the audit log of the edge daemon ("" when off).
	auditPath string
	// forwardHTTP is the router's shard-forwarding client.
	forwardHTTP *http.Client
}

// close stops whatever part of the cluster was booted.
func (c *cluster) close() {
	if c.front != nil {
		c.front.close()
	}
	for _, d := range c.shards {
		d.close()
	}
	if c.forwardHTTP != nil {
		c.forwardHTTP.CloseIdleConnections()
	}
}

// boot builds the workload's daemons through their public constructors
// and serves them on loopback listeners. dir holds audit and snapshot
// files; snapshots are only enabled for the traced pass, which times
// one SaveSnapshot at its end.
func boot(in *inputs, dir string, snapshots bool) (*cluster, error) {
	sp := in.spec
	cfg := server.Config{
		Stream:        in.streams[0],
		ExtraStreams:  in.streams[1:],
		ServerStreams: sp.serverStreams,
		Lambda:        1,
	}
	if snapshots {
		cfg.SnapshotDir = filepath.Join(dir, "snap")
	}
	if sp.shards == 0 {
		c := &cluster{}
		if sp.audit {
			cfg.AuditDir = filepath.Join(dir, "audit")
			c.auditPath = filepath.Join(cfg.AuditDir, audit.FileName)
		}
		s, err := server.New(cfg)
		if err != nil {
			return nil, err
		}
		d, err := serve(s.Handler())
		if err != nil {
			s.Close()
			return nil, err
		}
		d.srv = s
		c.front = d
		return c, nil
	}

	// Federation: the shard map needs the shard addresses, so the
	// listeners come first and the map is installed afterwards.
	c := &cluster{forwardHTTP: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	nodes := make([]shard.Node, sp.shards)
	for i := range nodes {
		scfg := cfg
		scfg.ShardMode = true
		scfg.NodeID = shardIDs[i]
		if snapshots {
			scfg.SnapshotDir = filepath.Join(dir, "snap-"+scfg.NodeID)
		}
		s, err := server.New(scfg)
		if err != nil {
			c.close()
			return nil, err
		}
		d, err := serve(s.Handler())
		if err != nil {
			s.Close()
			c.close()
			return nil, err
		}
		d.srv = s
		c.shards = append(c.shards, d)
		nodes[i] = shard.Node{ID: scfg.NodeID, Addr: d.url}
	}
	m, err := shard.New(nodes, 0)
	if err != nil {
		c.close()
		return nil, err
	}
	for _, d := range c.shards {
		d.srv.InstallShardMap(m)
	}
	rt, err := router.New(router.Config{
		Map:            m,
		DefaultChannel: in.streams[0].ID,
		ClientOptions:  []client.Option{client.WithHTTPClient(c.forwardHTTP)},
	})
	if err != nil {
		c.close()
		return nil, err
	}
	front, err := serve(rt.Handler())
	if err != nil {
		c.close()
		return nil, err
	}
	c.front, c.rt, c.smap = front, rt, m
	return c, nil
}

// transport is how the slot driver reaches a daemon: over a loopback
// socket (the measured path) or by calling the handler in-process (the
// probe that separates handler time from socket time).
type transport interface {
	post(path, contentType string, body []byte, out any) error
	get(path string, out any) error
}

// countingRT counts HTTP round trips, so retries inside client.Caller
// show up as round trips beyond the operations issued.
type countingRT struct {
	next http.RoundTripper
	n    atomic.Int64
}

func (c *countingRT) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.next.RoundTrip(r)
}

// socket is a client.Caller bound to one keep-alive connection.
type socket struct {
	call *client.Caller
	rt   *countingRT
	tr   *http.Transport
	// calls counts operations issued; round trips beyond it are retries.
	calls int64
}

func newSocket(base string) (*socket, error) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	rt := &countingRT{next: tr}
	call, err := client.NewCaller(base, client.WithHTTPClient(&http.Client{Transport: rt}))
	if err != nil {
		return nil, err
	}
	return &socket{call: call, rt: rt, tr: tr}, nil
}

func (s *socket) post(path, contentType string, body []byte, out any) error {
	s.calls++
	return s.call.PostRaw(path, contentType, body, out)
}

func (s *socket) get(path string, out any) error {
	s.calls++
	return s.call.GetJSON(path, out)
}

func (s *socket) retries() int64 { return s.rt.n.Load() - s.calls }
func (s *socket) close()         { s.tr.CloseIdleConnections() }

// inproc calls a daemon's handler directly, without a socket.
type inproc struct {
	h http.Handler
	// last is the most recent response.
	last *httptest.ResponseRecorder
}

func (p *inproc) do(method, path, contentType string, body []byte, out any) error {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, req)
	p.last = rec
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %.200s", method, path, rec.Code, rec.Body.String())
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

func (p *inproc) post(path, contentType string, body []byte, out any) error {
	return p.do("POST", path, contentType, body, out)
}
func (p *inproc) get(path string, out any) error { return p.do("GET", path, "", nil, out) }

// waitReady polls /readyz until the daemon answers 200.
func waitReady(t transport) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var r server.ReadyResponse
		err := t.get("/readyz", &r)
		if err == nil && r.Ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not ready: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
