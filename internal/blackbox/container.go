package blackbox

import (
	"encoding/json"
	"fmt"
	"sync"

	"pretzel/internal/vector"
)

// ContainerBallastBytes is the fixed per-container runtime footprint (the
// Docker/WSL runtime, the container's private CLR, etc.). The value is
// calibrated from Fig. 8, where ML.Net + Clipper uses ≈2.5× the memory of
// plain ML.Net for the (small) AC models: (10GB − 4GB) / 250 ≈ 24MiB per
// container. This is the single synthetic constant in the baselines.
const ContainerBallastBytes = 24 << 20

// rpcRequest is the serialized request crossing the container boundary.
type rpcRequest struct {
	Model string `json:"model"`
	Text  string `json:"text"`
	Reply chan rpcResponse
}

// rpcResponse is the serialized response crossing back.
type rpcResponse struct {
	Payload []byte
	Err     error
}

// wireRequest/wireResponse are the on-the-wire JSON shapes.
type wireRequest struct {
	Model string `json:"model"`
	Text  string `json:"text"`
}

type wireResponse struct {
	Prediction []float32 `json:"prediction"`
	Error      string    `json:"error,omitempty"`
}

// Container hosts exactly one model in its own engine instance behind a
// serialized RPC boundary, emulating a Docker container managed by
// Clipper: requests are JSON-encoded, cross a channel (the RPC socket),
// are decoded inside, evaluated single-threaded, and the response crosses
// back the same way.
type Container struct {
	name    string
	engine  *Engine
	inbox   chan *rpcRequest
	done    chan struct{}
	ballast []byte
}

// NewContainer spins up a container for one model held in memory.
func NewContainer(name string, raw []byte) (*Container, error) {
	eng := NewEngine()
	if err := eng.Load(name, raw); err != nil {
		return nil, err
	}
	return newContainer(name, eng)
}

// NewContainerFile spins up a container for a disk-backed model.
func NewContainerFile(name, path string) (*Container, error) {
	eng := NewEngine()
	if err := eng.LoadFile(name, path); err != nil {
		return nil, err
	}
	return newContainer(name, eng)
}

func newContainer(name string, eng *Engine) (*Container, error) {
	c := &Container{
		name:    name,
		engine:  eng,
		inbox:   make(chan *rpcRequest, 128),
		done:    make(chan struct{}),
		ballast: make([]byte, ContainerBallastBytes),
	}
	// Touch the ballast so it is committed, as a real container runtime's
	// working set would be.
	for i := 0; i < len(c.ballast); i += 4096 {
		c.ballast[i] = 1
	}
	go c.serve()
	return c, nil
}

// serve is the container's single-threaded request loop (§2: "for each
// request, one thread handles the execution of a full pipeline
// sequentially").
func (c *Container) serve() {
	in := vector.New(0)
	out := vector.New(0)
	for {
		select {
		case <-c.done:
			return
		case req := <-c.inbox:
			// Decode the wire payload inside the container.
			var wr wireRequest
			payload, _ := json.Marshal(wireRequest{Model: req.Model, Text: req.Text})
			if err := json.Unmarshal(payload, &wr); err != nil {
				req.Reply <- rpcResponse{Err: err}
				continue
			}
			in.SetText(wr.Text)
			err := c.engine.Predict(wr.Model, in, out)
			var resp wireResponse
			if err != nil {
				resp.Error = err.Error()
			} else {
				resp.Prediction = append([]float32(nil), out.Dense...)
			}
			b, merr := json.Marshal(resp)
			if merr != nil {
				err = merr
			}
			req.Reply <- rpcResponse{Payload: b, Err: err}
		}
	}
}

// Warm forces model materialization inside the container.
func (c *Container) Warm() error { return c.engine.Warm(c.name) }

// Stop terminates the container loop.
func (c *Container) Stop() { close(c.done) }

// MemBytes reports the container footprint: model + ballast.
func (c *Container) MemBytes() int {
	return c.engine.MemBytes() + len(c.ballast)
}

// Orchestrator is the Clipper-style front: it routes prediction requests
// to per-model containers over the RPC boundary.
type Orchestrator struct {
	mu         sync.RWMutex
	containers map[string]*Container
}

// NewOrchestrator returns an empty orchestrator.
func NewOrchestrator() *Orchestrator {
	return &Orchestrator{containers: make(map[string]*Container)}
}

// Deploy creates a container for an in-memory model.
func (o *Orchestrator) Deploy(name string, raw []byte) error {
	c, err := NewContainer(name, raw)
	if err != nil {
		return err
	}
	return o.install(name, c)
}

// DeployFile creates a container for a disk-backed model.
func (o *Orchestrator) DeployFile(name, path string) error {
	c, err := NewContainerFile(name, path)
	if err != nil {
		return err
	}
	return o.install(name, c)
}

func (o *Orchestrator) install(name string, c *Container) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, dup := o.containers[name]; dup {
		c.Stop()
		return fmt.Errorf("blackbox: container %q already deployed", name)
	}
	o.containers[name] = c
	return nil
}

// container looks up a deployed container.
func (o *Orchestrator) container(name string) (*Container, error) {
	o.mu.RLock()
	c, ok := o.containers[name]
	o.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("blackbox: no container for %q", name)
	}
	return c, nil
}

// Predict sends one request through the RPC boundary and decodes the
// response, returning the prediction vector.
func (o *Orchestrator) Predict(name, text string) ([]float32, error) {
	c, err := o.container(name)
	if err != nil {
		return nil, err
	}
	req := &rpcRequest{Model: name, Text: text, Reply: make(chan rpcResponse, 1)}
	c.inbox <- req
	resp := <-req.Reply
	if resp.Err != nil {
		return nil, resp.Err
	}
	var wr wireResponse
	if err := json.Unmarshal(resp.Payload, &wr); err != nil {
		return nil, err
	}
	if wr.Error != "" {
		return nil, fmt.Errorf("blackbox: container %s: %s", name, wr.Error)
	}
	return wr.Prediction, nil
}

// Warm materializes the model inside one container.
func (o *Orchestrator) Warm(name string) error {
	c, err := o.container(name)
	if err != nil {
		return err
	}
	return c.Warm()
}

// StopAll terminates every container.
func (o *Orchestrator) StopAll() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, c := range o.containers {
		c.Stop()
	}
	o.containers = make(map[string]*Container)
}

// MemBytes reports the summed container footprint.
func (o *Orchestrator) MemBytes() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	total := 0
	for _, c := range o.containers {
		total += c.MemBytes()
	}
	return total
}

// Count returns the number of deployed containers.
func (o *Orchestrator) Count() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.containers)
}
