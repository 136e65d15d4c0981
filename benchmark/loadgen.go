package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pretzel/internal/serving"
)

// client is one keep-alive HTTP/1.1 connection that writes prebuilt
// request bytes and reads just enough of the reply to check it. It is
// deliberately thinner than net/http's client, so that on a host where
// the generator shares its cores with the server the generator's own
// cost stays small and constant; the server side is real net/http.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
	vals []float32 // prediction of the last reply
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, replyLimit)
	if err != nil {
		return nil, err
	}
	return &client{addr: addr, conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *client) close() { _ = c.conn.Close() }

const traceHeader = "X-Bench-Trace"

// do sends one prebuilt request (with a trace header when id != 0,
// inserted before the blank line at hdrEnd) and reads the reply. The
// prediction is left in c.vals.
func (c *client) do(req []byte, hdrEnd int, id uint64) (status int, err error) {
	out := req
	if id != 0 {
		c.wbuf = append(c.wbuf[:0], req[:hdrEnd]...)
		c.wbuf = append(c.wbuf, traceHeader+": "...)
		c.wbuf = strconv.AppendUint(c.wbuf, id, 10)
		c.wbuf = append(c.wbuf, "\r\n"...)
		c.wbuf = append(c.wbuf, req[hdrEnd:]...)
		out = c.wbuf
	}
	if err := c.conn.SetDeadline(time.Now().Add(replyLimit)); err != nil {
		return 0, err
	}
	if _, err := c.conn.Write(out); err != nil {
		return 0, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 {
		return 0, fmt.Errorf("short status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("status line %q: %w", line, err)
	}
	length := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			length, err = strconv.Atoi(string(bytes.TrimSpace(v)))
			if err != nil {
				return 0, fmt.Errorf("content length %q: %w", v, err)
			}
		}
	}
	if length < 0 {
		return 0, fmt.Errorf("reply without Content-Length")
	}
	body, err := c.br.Peek(length)
	if err != nil {
		return 0, err
	}
	c.vals = c.vals[:0]
	if status == http.StatusOK {
		c.vals, err = parsePrediction(body, c.vals)
	}
	if _, derr := c.br.Discard(length); err == nil {
		err = derr
	}
	return status, err
}

// parsePrediction reads the numbers of {"prediction":[…],…}.
func parsePrediction(body []byte, vals []float32) ([]float32, error) {
	open := bytes.IndexByte(body, '[')
	end := bytes.IndexByte(body, ']')
	if open < 0 || end < open {
		return vals, fmt.Errorf("no prediction in %q", body)
	}
	for _, f := range bytes.Split(body[open+1:end], []byte{','}) {
		v, err := strconv.ParseFloat(string(f), 32)
		if err != nil {
			return vals, fmt.Errorf("prediction %q: %w", body, err)
		}
		vals = append(vals, float32(v))
	}
	return vals, nil
}

// tally counts what one phase did. Latencies are in nanoseconds.
type tally struct {
	attempted, failed int
	ok                int     // 200, correct
	inLimit           int     // ok and within the latency limit
	non200, wrong     int     // two of the ways to fail
	lat               []int64 // per ok reply: from due time (open) or from send (closed)
	late              []int64 // open: how long after its due time a request was sent
	elapsed           time.Duration
}

// count files one reply under ok or failed and reports which.
func (t *tally) count(status int, got, want []float32) bool {
	switch {
	case status != http.StatusOK:
		t.failed++
		t.non200++
	case !agrees(got, want):
		t.failed++
		t.wrong++
	default:
		t.ok++
		return true
	}
	return false
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.ok += o.ok
	t.inLimit += o.inLimit
	t.non200 += o.non200
	t.wrong += o.wrong
	t.lat = append(t.lat, o.lat...)
	t.late = append(t.late, o.late...)
}

// loadgen drives /predict over a fixed set of connections.
type loadgen struct {
	s       *stream
	clients []*client
	tr      *tracer // nil in untraced runs
	next    int64   // where in s.order the next phase starts
}

func newLoadgen(addr string, s *stream, clients int, tr *tracer) (*loadgen, error) {
	g := &loadgen{s: s, tr: tr}
	for i := 0; i < clients; i++ {
		c, err := dial(addr)
		if err != nil {
			g.close()
			return nil, err
		}
		g.clients = append(g.clients, c)
	}
	return g, nil
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.close()
	}
}

// waitUntil sleeps to within a millisecond of t and spins the rest.
// time.Sleep alone wakes about a millisecond late on an idle processor,
// and a spin that yields (runtime.Gosched) keeps its processor from
// polling the network, which showed as 4 ms stalls of the request in
// flight; a plain spin does neither. At most clients-minus-in-flight
// goroutines spin, so the server always has a processor per request,
// and the spin executes PAUSE: in some spells of the host the open
// phases alone got a quarter slower while closed phases and set-up did
// not, which is what two virtual processors on one core would do.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 2*time.Millisecond {
		time.Sleep(d - time.Millisecond)
	}
	for time.Now().Before(t) {
		pause()
	}
}

// phase runs one load phase for d. With rate 0 it is closed: every
// client sends its next request when the previous reply arrives. With
// a rate it is open: request i is due at start + i/rate whatever the
// server does, a client claims the next i, waits for its due time, and
// the latency is counted from that due time, so a stall is charged to
// every request it delays. Requests more than replyLimit overdue are
// counted as failed without being sent, which bounds the phase.
func (g *loadgen) phase(d time.Duration, rate float64, limit time.Duration, traced bool) tally {
	base := g.next
	g.next += 7919 // phases of one run start at different points of the order
	var seq atomic.Int64
	parts := make([]tally, len(g.clients))
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for ci := range g.clients {
		wg.Add(1)
		go func(c *client, t *tally) {
			defer wg.Done()
			for {
				i := seq.Add(1) - 1
				due := time.Now()
				if rate > 0 {
					due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				}
				if !due.Before(end) {
					return
				}
				if rate > 0 {
					waitUntil(due)
				}
				k := g.s.order[(base+i)%orderLen]
				req := g.s.reqs[k]
				t.attempted++
				sent := time.Now()
				if sent.Sub(due) > replyLimit {
					t.failed++
					continue
				}
				var id uint64
				if traced {
					id = g.tr.newID()
				}
				status, err := c.do(req, len(req)-len(g.s.bodies[k])-2, id)
				done := time.Now()
				if traced {
					g.tr.record(spanClient, id, sent, done, 1)
				}
				if err != nil {
					t.failed++
					c.close()
					nc, derr := dial(c.addr)
					if derr != nil {
						return
					}
					*c = *nc
					continue
				}
				if t.count(status, c.vals, g.s.refs[k]) {
					l := done.Sub(due)
					if limit == 0 || l <= limit {
						t.inLimit++
					}
					t.lat = append(t.lat, int64(l))
					if rate > 0 {
						t.late = append(t.late, int64(sent.Sub(due)))
					}
				}
			}
		}(g.clients[ci], &parts[ci])
	}
	wg.Wait()
	var total tally
	total.elapsed = time.Since(start)
	for _, p := range parts {
		total.add(p)
	}
	return total
}

// batchOnce issues one offline job straight into the engine and
// checks every record. The latency is the job's; attempted, failed and
// ok count records.
func batchOnce(ctx context.Context, eng serving.Engine, c *catalog, j job) tally {
	t := tally{attempted: len(j.inputs)}
	t0 := time.Now()
	preds, err := eng.PredictBatch(ctx, c.models[j.model].name, j.inputs, serving.PredictOptions{})
	l := time.Since(t0)
	if err != nil || len(preds) != len(j.refs) {
		t.failed = len(j.inputs)
		return t
	}
	for i, p := range preds {
		if agrees(p, j.refs[i]) {
			t.ok++
		} else {
			t.failed++
			t.wrong++
		}
	}
	t.lat = []int64{int64(l)}
	return t
}

// batchPhase is the offline caller: one goroutine issuing 256-record
// jobs, round-robin over the prebuilt jobs from job number first, for d.
func batchPhase(ctx context.Context, eng serving.Engine, c *catalog, s *stream, d time.Duration, first int) tally {
	var t tally
	start := time.Now()
	for n := first; time.Since(start) < d; n++ {
		t.add(batchOnce(ctx, eng, c, s.jobs[n%len(s.jobs)]))
	}
	t.elapsed = time.Since(start)
	return t
}

// publisher is the model publisher's view of a node: it uploads a new
// version of a model, moves the stable label to it and deletes the
// version that was stable before, over the management plane.
type publisher struct {
	base    string
	hc      *http.Client
	c       *catalog
	s       *stream
	version []int // stable version per model
	n       int   // cycles done
}

func newPublisher(addr string, c *catalog, s *stream) *publisher {
	p := &publisher{
		base:    "http://" + addr,
		hc:      &http.Client{Timeout: 10 * time.Second},
		c:       c,
		s:       s,
		version: make([]int, len(c.models)),
	}
	for i := range p.version {
		p.version[i] = 1
	}
	return p
}

func (p *publisher) close() { p.hc.CloseIdleConnections() }

func (p *publisher) call(method, url, ctype string, body []byte, want int, into any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if into != nil {
		return json.Unmarshal(raw, into)
	}
	return nil
}

// cycle publishes the next model of the seeded schedule and returns
// how long that took, upload sent to old version deleted.
func (p *publisher) cycle() (time.Duration, error) {
	m := p.s.publish[p.n%len(p.s.publish)]
	p.n++
	name := p.c.models[m].name
	t0 := time.Now()
	var reg struct {
		Version int `json:"version"`
	}
	if err := p.call("POST", p.base+"/models?name="+name, "application/zip", p.c.models[m].zip, http.StatusCreated, &reg); err != nil {
		return 0, err
	}
	label := fmt.Sprintf(`{"label":"stable","version":%d}`, reg.Version)
	if err := p.call("POST", p.base+"/models/"+name+"/labels", "application/json", []byte(label), http.StatusOK, nil); err != nil {
		return 0, err
	}
	old := p.version[m]
	p.version[m] = reg.Version
	if err := p.call("DELETE", fmt.Sprintf("%s/models/%s@%d", p.base, name, old), "", nil, http.StatusOK, nil); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// run publishes for d: back to back when hz is 0, else one cycle every
// 1/hz seconds on a fixed schedule. attempted, failed and ok count
// cycles.
func (p *publisher) run(d time.Duration, hz float64, log io.Writer) tally {
	var t tally
	start := time.Now()
	end := start.Add(d)
	for i := 0; ; i++ {
		if hz > 0 {
			due := start.Add(time.Duration(float64(i) / hz * float64(time.Second)))
			if !due.Before(end) {
				break
			}
			waitUntil(due)
		} else if !time.Now().Before(end) {
			break
		}
		t.attempted++
		l, err := p.cycle()
		if err != nil {
			t.failed++
			fmt.Fprintf(log, "publish: %v\n", err)
			continue
		}
		t.ok++
		t.lat = append(t.lat, int64(l))
	}
	t.elapsed = time.Since(start)
	return t
}
