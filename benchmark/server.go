package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"sfi/internal/dist"
	"sfi/internal/engine"
	"sfi/internal/server"
)

// serverInstance is a campaign server on a loopback listener, driven over
// real HTTP by the window's one closed-loop client.
type serverInstance struct {
	e    *env
	dir  string
	srv  *server.Server
	http *http.Server
	done chan struct{} // closed when Serve returns
	base string
	cl   *http.Client

	finished map[int][]byte // fresh op index → its report bytes (empty: it failed)
}

func openServer(e *env) (instance, error) {
	dir, err := os.MkdirTemp(e.tmp, "server-*")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Dir: dir, MaxConcurrent: 2})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &serverInstance{
		e: e, dir: dir, srv: srv,
		http:     &http.Server{Handler: srv.Handler()},
		done:     make(chan struct{}),
		base:     "http://" + ln.Addr().String(),
		cl:       &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}},
		finished: make(map[int][]byte),
	}
	go func() {
		defer close(s.done)
		s.http.Serve(ln) //nolint:errcheck // always ErrServerClosed after close
	}()
	// A server is ready for its traffic once the checkpoint image its
	// campaigns share is warm: the first campaign builds it, and that cold
	// boot is part of set-up, not of any measured op.
	if first := s.op(-1, nil); first.Err != "" {
		s.close()
		return nil, fmt.Errorf("first campaign: %s", first.Err)
	}
	return s, nil
}

func (s *serverInstance) close() {
	s.cl.CloseIdleConnections()
	s.http.Close()
	<-s.done
	s.srv.Close()
	os.RemoveAll(s.dir)
}

// isDup decides op i's kind: every fourth op re-submits an earlier spec
// exactly, so every window has the same mix whatever its seed.
func isDup(i int) bool { return i%4 == 3 }

// original picks the fresh op a duplicate op i re-submits from the run seed.
func (s *serverInstance) original(i int) int {
	j := int(engine.Splitmix64(s.e.seed+uint64(i)) % uint64(i))
	for isDup(j) {
		j--
	}
	return j
}

func (s *serverInstance) spec(i int) server.Spec {
	return server.Spec{Campaign: dist.CampaignSpec{
		Runner:       s.e.p6lite(engine.Toggle),
		Seed:         s.e.opSeed(i),
		Flips:        s.e.sz.serverFlips,
		ShardWorkers: loadWorkers,
	}}
}

// serverOp is what a client saw of one op beyond its wall time.
type serverOp struct {
	submitMs, reportGetMs float64
	polls                 int
	rec                   server.Campaign // the final campaign record
	original              int             // dup ops: the op re-submitted
}

func (s *serverInstance) op(i int, rec *recorder) opResult {
	res := opResult{Index: i, Kind: "fresh"}
	info := &serverOp{original: -1}
	res.server = info
	specIdx := i
	var want []byte
	if i >= 0 && isDup(i) {
		res.Kind, specIdx = "dup", s.original(i)
		info.original = specIdx
		if want = s.finished[specIdx]; len(want) == 0 {
			res.fail("original op %d failed", specIdx)
			return res
		}
	}
	body, err := json.Marshal(s.spec(specIdx))
	if err != nil {
		res.fail("spec: %v", err)
		return res
	}

	t0 := time.Now()
	root := rec.begin(spanHandle{}, i, "op", "bench")
	defer func() {
		root.end()
		if res.WallS == 0 {
			res.WallS = time.Since(t0).Seconds()
		}
	}()
	sp := rec.begin(root, i, "POST /v1/campaigns", "server")
	var c server.Campaign
	err = s.call(http.MethodPost, "/v1/campaigns", body, http.StatusCreated, &c, nil)
	sp.end()
	info.submitMs = ms(time.Since(t0))
	if err != nil {
		res.fail("submit: %v", err)
		return res
	}
	for c.State != server.StateDone {
		if c.State == server.StateFailed || c.State == server.StateCancelled {
			res.fail("campaign %s: %s", c.State, c.Error)
			return res
		}
		if time.Since(t0) > opTimeout {
			res.fail("campaign stuck in %s", c.State)
			return res
		}
		time.Sleep(time.Millisecond)
		sp = rec.begin(root, i, "GET /v1/campaigns/{id}", "server")
		err = s.call(http.MethodGet, "/v1/campaigns/"+c.ID, nil, http.StatusOK, &c, nil)
		sp.end()
		info.polls++
		if err != nil {
			res.fail("poll: %v", err)
			return res
		}
	}
	g0 := time.Now()
	sp = rec.begin(root, i, "GET /v1/campaigns/{id}/report", "server")
	err = s.call(http.MethodGet, "/v1/campaigns/"+c.ID+"/report", nil, http.StatusOK, nil, &res.report)
	sp.end()
	info.reportGetMs = ms(time.Since(g0))
	res.WallS = time.Since(t0).Seconds()
	info.rec = c
	if err != nil {
		res.fail("report: %v", err)
		return res
	}

	res.parseReport(res.report)
	if res.Kind == "dup" {
		if !c.Dedup {
			res.fail("re-submission of op %d ran instead of deduplicating", specIdx)
		}
		if !bytes.Equal(res.report, want) {
			res.fail("re-submission of op %d returned a different report", specIdx)
		}
		return res
	}
	res.Injections = c.Injections
	if res.total != s.e.sz.serverFlips {
		res.fail("campaign classified %d of %d flips", res.total, s.e.sz.serverFlips)
	}
	s.finished[i] = res.report
	return res
}

// call makes one request and decodes the reply into out (JSON) or raw.
func (s *serverInstance) call(method, path string, body []byte, want int, out any, raw *[]byte) error {
	req, err := http.NewRequestWithContext(s.e.ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if raw != nil {
		*raw = data
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// verify has nothing left to check: every op already compared its own
// report (sums, dedup flag, byte identity) when it received it.
func (s *serverInstance) verify([]opResult) []string { return nil }
