package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Member identifies one serving node.
type Member struct {
	// ID is the node's stable identity on the hash ring (defaults to
	// Addr). Placement is keyed by ID, so a node that moves address
	// keeps its models.
	ID string
	// Addr is the node's HTTP base URL ("http://host:port"; a bare
	// "host:port" gets the http scheme).
	Addr string
}

// normalize fills defaults: scheme and ID.
func (m Member) normalize() Member {
	m.Addr = strings.TrimRight(m.Addr, "/")
	if m.Addr != "" && !strings.Contains(m.Addr, "://") {
		m.Addr = "http://" + m.Addr
	}
	if m.ID == "" {
		m.ID = m.Addr
	}
	return m
}

// memberState is one member plus its live health/traffic state.
type memberState struct {
	Member

	// healthy/ready mirror the node's /healthz and /readyz probes.
	// Members start optimistic (true) so a router can serve before the
	// first probe round; the breaker absorbs the gap if a node is
	// actually down.
	healthy atomic.Bool
	ready   atomic.Bool
	lastErr atomic.Value // string

	// failStreak counts consecutive failed probe rounds: the member is
	// marked down only when it reaches the registry's hysteresis
	// threshold, so one slow probe does not trigger a rebalance.
	failStreak atomic.Int32

	// quarantined is the model set the member's /readyz last reported
	// quarantined (atomic.Value of map[string]bool; nil = none).
	quarantined atomic.Value

	// warmth is the member's latest lifecycle snapshot from the
	// router's warmth poll (atomic.Value of *nodeWarmth; nil = never
	// polled or member exposes no lifecycle state).
	warmth atomic.Value

	br *breaker

	forwards atomic.Uint64
	failures atomic.Uint64
}

// isQuarantined reports whether the member's last readyz probe listed
// the bare model name as quarantined.
func (m *memberState) isQuarantined(name string) bool {
	q, _ := m.quarantined.Load().(map[string]bool)
	return q[name]
}

// warmthSnapshot returns the member's latest warmth-poll snapshot (nil
// when none exists).
func (m *memberState) warmthSnapshot() *nodeWarmth {
	w, _ := m.warmth.Load().(*nodeWarmth)
	return w
}

// up reports whether the member is currently routable at full priority.
func (m *memberState) up() bool { return m.healthy.Load() && m.ready.Load() }

// registry tracks the member set and probes each node's /healthz and
// /readyz on an interval — the cluster reuse of the mgmt-plane probes
// every node already serves. Membership is dynamic: the router's
// rebalancer adds and removes members at runtime.
type registry struct {
	client   *http.Client
	interval time.Duration
	// maxFails is the hysteresis threshold M: consecutive failed probe
	// rounds before a member is marked down.
	maxFails   int
	brCooldown time.Duration

	// onDown, when set (before start), is invoked once per up→down
	// transition with the member's ID — the rebalancer's pre-warm
	// trigger. Called from a probe goroutine; must not block on the
	// registry.
	onDown func(id string)

	mu      sync.RWMutex
	members map[string]*memberState

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// newRegistry builds the member set WITHOUT starting the probe loop;
// call start once the owner has wired its callbacks.
func newRegistry(members []Member, client *http.Client, interval time.Duration, maxFails int, brCooldown time.Duration) (*registry, error) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	if maxFails <= 0 {
		maxFails = 2
	}
	r := &registry{
		client:     client,
		interval:   interval,
		maxFails:   maxFails,
		brCooldown: brCooldown,
		members:    make(map[string]*memberState, len(members)),
		stop:       make(chan struct{}),
	}
	for _, m := range members {
		if _, err := r.add(m); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// start launches the probe loop.
func (r *registry) start() {
	r.wg.Add(1)
	go r.probeLoop()
}

// add registers a new member (normalized), optimistic until probed.
func (r *registry) add(m Member) (*memberState, error) {
	m = m.normalize()
	if m.Addr == "" {
		return nil, fmt.Errorf("cluster: member %q has no address", m.ID)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.members[m.ID]; dup {
		return nil, fmt.Errorf("cluster: duplicate member id %q", m.ID)
	}
	ms := &memberState{Member: m, br: newBreaker(breakerThreshold, r.brCooldown)}
	ms.healthy.Store(true)
	ms.ready.Store(true)
	r.members[m.ID] = ms
	return ms, nil
}

// remove drops a member from the set (its in-flight requests finish;
// the ring decides routing, the registry only tracks state).
func (r *registry) remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[id]; !ok {
		return false
	}
	delete(r.members, id)
	return true
}

// get returns a member by ID (nil when unknown).
func (r *registry) get(id string) *memberState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.members[id]
}

// all returns every member, unordered.
func (r *registry) all() []*memberState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*memberState, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, m)
	}
	return out
}

// close stops the probe loop.
func (r *registry) close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// probeLoop health-checks every member each interval until closed.
func (r *registry) probeLoop() {
	defer r.wg.Done()
	// First round immediately: a router should converge on real node
	// state in one interval, not two.
	r.probeAll()
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.probeAll()
		}
	}
}

func (r *registry) probeAll() {
	var wg sync.WaitGroup
	for _, m := range r.all() {
		wg.Add(1)
		go func(m *memberState) {
			defer wg.Done()
			r.probe(m)
		}(m)
	}
	wg.Wait()
}

// probe hits one node's /healthz and /readyz. Each request gets its
// own timeout budget: a slow healthz must not starve the readyz check
// into falsely marking a ready node not-ready.
//
// Down-marking is damped: transport failures (and non-200 healthz)
// only take effect after maxFails CONSECUTIVE failed rounds, so one
// dropped packet or GC pause does not flap routing or trigger a
// rebalance. Recovery is immediate — one clean round marks the member
// back up. A readyz that ANSWERS non-200 is authoritative (the node
// itself says "don't route to me": draining, blackout) and flips
// readiness without damping.
func (r *registry) probe(m *memberState) {
	ok, err := r.check(m.Addr + "/healthz")
	if !ok {
		r.noteProbeFailure(m, err, true)
		return
	}
	status, quarantined, rerr := r.checkReady(m.Addr + "/readyz")
	if rerr != nil {
		// Transport flake on readyz while healthz answered: damp it
		// like a health failure, but the process is demonstrably alive.
		r.noteProbeFailure(m, rerr, false)
		return
	}
	m.failStreak.Store(0)
	m.healthy.Store(true)
	if status == http.StatusOK {
		m.ready.Store(true)
		m.quarantined.Store(quarantined)
		m.lastErr.Store("")
		return
	}
	// Authoritative not-ready: immediate, no hysteresis.
	wasUp := m.up()
	m.ready.Store(false)
	m.lastErr.Store(fmt.Sprintf("%s/readyz: status %d", m.Addr, status))
	if wasUp && r.onDown != nil {
		r.onDown(m.ID)
	}
}

// noteProbeFailure records one failed probe round, applying the
// hysteresis threshold before the member's routing state changes.
func (r *registry) noteProbeFailure(m *memberState, err error, dead bool) {
	if err != nil {
		m.lastErr.Store(err.Error())
	}
	if int(m.failStreak.Add(1)) < r.maxFails {
		return // flap damping: keep routing state until the streak proves it
	}
	wasUp := m.up()
	if dead {
		m.healthy.Store(false)
	}
	m.ready.Store(false)
	if wasUp && r.onDown != nil {
		r.onDown(m.ID)
	}
}

func (r *registry) check(url string) (bool, error) {
	resp, err := r.probeGet(url)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return true, nil
}

// checkReady probes /readyz, returning the status code and the
// quarantined-model set a 200 body reports. A transport failure
// returns err != nil; a non-200 ANSWER is (status, nil, nil) — the
// node spoke for itself.
func (r *registry) checkReady(url string) (int, map[string]bool, error) {
	resp, err := r.probeGet(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, nil
	}
	var body struct {
		Quarantined []string `json:"quarantined"`
	}
	if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); derr != nil || len(body.Quarantined) == 0 {
		return resp.StatusCode, nil, nil
	}
	q := make(map[string]bool, len(body.Quarantined))
	for _, name := range body.Quarantined {
		q[name] = true
	}
	return resp.StatusCode, q, nil
}

func (r *registry) probeGet(url string) (*http.Response, error) {
	timeout := r.interval
	if timeout > time.Second {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	// Read the bounded body inside the probe timeout and hand back a
	// replayable response, so callers never hold a live connection.
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	resp.Body = io.NopCloser(strings.NewReader(string(raw)))
	return resp, nil
}
