// Chaos endpoints of the management plane: when the server was built
// over a chaos.Injector (pretzel-server -chaos), operators arm and
// disarm fault-injection rules at runtime —
//
//	GET    /chaos       armed rules, seed, total injections
//	POST   /chaos       arm a rule (chaos.Rule JSON body)
//	DELETE /chaos       disarm every rule
//	DELETE /chaos/{id}  disarm one rule
//
// On a server without an injector the endpoints answer 409, so a probe
// can distinguish "chaos disabled" from "bad rule".
package frontend

import (
	"net/http"
	"strconv"

	"pretzel/internal/chaos"
	"pretzel/internal/serving"
)

// injector returns the chaos injector in the engine stack; on a server
// built without one it answers 409 and reports false.
func (s *Server) injector(w http.ResponseWriter) (*chaos.Injector, bool) {
	inj, ok := serving.As[*chaos.Injector](s.eng)
	if !ok {
		writeJSON(w, http.StatusConflict, errorBody{Error: "chaos injection disabled (start the server with -chaos)"})
	}
	return inj, ok
}

// ChaosState is the GET /chaos body.
type ChaosState struct {
	Seed     int64        `json:"seed"`
	Injected uint64       `json:"injected"`
	Rules    []chaos.Rule `json:"rules"`
}

func (s *Server) handleChaosGet(w http.ResponseWriter, r *http.Request) {
	inj, ok := s.injector(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, ChaosState{Seed: inj.Seed(), Injected: inj.Injected(), Rules: inj.Rules()})
}

func (s *Server) handleChaosArm(w http.ResponseWriter, r *http.Request) {
	inj, ok := s.injector(w)
	if !ok {
		return
	}
	var rule chaos.Rule
	if err := decodeBody(w, r, &rule); err != nil {
		writeErr(w, err)
		return
	}
	armed, err := inj.Arm(rule)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, armed)
}

func (s *Server) handleChaosReset(w http.ResponseWriter, r *http.Request) {
	inj, ok := s.injector(w)
	if !ok {
		return
	}
	inj.Reset()
	writeJSON(w, http.StatusOK, map[string]string{"status": "reset"})
}

func (s *Server) handleChaosDisarm(w http.ResponseWriter, r *http.Request) {
	inj, ok := s.injector(w)
	if !ok {
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad rule id: " + r.PathValue("id")})
		return
	}
	if err := inj.Disarm(id); err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"disarmed": id})
}
