// Fabric-facing surface of the server: the coordinator-only endpoints
// (/v1/fabric/join, /v1/fabric/leave, /v1/fabric/program), the optional
// interfaces a Dispatcher may implement to light them up, and the shared
// program-bundle wire format workers fetch pre-built programs in. The
// server still never imports internal/fabric — new fabric capabilities
// arrive through type assertions on Config.Dispatcher, so the core
// Dispatcher interface (and every existing implementation) stays stable.

package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"multipass/internal/arch"
	"multipass/internal/isa"
	"multipass/internal/obs"
)

// Membership is the optional Dispatcher extension for dynamic fleets. The
// join handler validates the worker URL before calling Join, so
// implementations treat the URL as well-formed.
type Membership interface {
	// Join adds url to the fleet or renews its lease, returning the lease
	// TTL and the member list after the join.
	Join(url string) (ttl time.Duration, members []string)
	// Leave removes url from the fleet; false if it was not a member.
	Leave(url string) bool
	// Members lists the current fleet.
	Members() []string
}

// ProgramProvider is the optional Dispatcher extension that serves shared
// program bundles to workers by program key.
type ProgramProvider interface {
	ProgramBundle(key string) (data []byte, ok bool)
}

// FleetReporter is the optional Dispatcher extension for fleet-level
// metric families (membership churn, memo activity), merged into the
// coordinator's /metrics exposition.
type FleetReporter interface {
	FleetFamilies() []obs.TextFamily
}

// ProgramKey is the content address of a job's compiled program: the hex
// SHA-256 over exactly the JobSpec fields that determine the binary
// (workload, scale, compile options). Model, hierarchy, and sampling are
// deliberately absent — every cell of a model sweep shares one program.
func ProgramKey(j JobSpec) string {
	id := fmt.Sprintf("program|%s|%d|%t|%t|%d",
		j.Workload, j.Scale, j.Schedule, j.InsertRestarts, j.Unroll)
	sum := sha256.Sum256([]byte(id))
	return hex.EncodeToString(sum[:])
}

// Program-bundle wire format: a fixed 8-byte magic, then two
// length-prefixed sections — the isa.Program binary encoding and the
// arch.Memory image encoding. Both inner encodings are deterministic, so
// one program identity always yields one bundle hash. All integers
// little-endian; versioned through the magic.

var bundleMagic = [8]byte{'M', 'P', 'B', 'N', 'D', 'L', '1', '\n'}

// EncodeProgramBundle serializes a compiled program and its initial memory
// image into one fetchable blob.
func EncodeProgramBundle(p *isa.Program, image *arch.Memory) ([]byte, error) {
	progBytes, err := p.MarshalBinary()
	if err != nil {
		return nil, err
	}
	memBytes, err := image.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(len(bundleMagic) + 8 + len(progBytes) + len(memBytes))
	buf.Write(bundleMagic[:])
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(progBytes)))
	buf.Write(u32[:])
	buf.Write(progBytes)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(memBytes)))
	buf.Write(u32[:])
	buf.Write(memBytes)
	return buf.Bytes(), nil
}

// DecodeProgramBundle parses a bundle written by EncodeProgramBundle.
func DecodeProgramBundle(data []byte) (*isa.Program, *arch.Memory, error) {
	r := bytes.NewReader(data)
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || magic != bundleMagic {
		return nil, nil, fmt.Errorf("server: bad program bundle magic")
	}
	section := func() ([]byte, error) {
		var u32 [4]byte
		if _, err := io.ReadFull(r, u32[:]); err != nil {
			return nil, fmt.Errorf("server: truncated program bundle: %w", err)
		}
		n := binary.LittleEndian.Uint32(u32[:])
		if uint32(r.Len()) < n {
			return nil, fmt.Errorf("server: truncated program bundle section (%d > %d left)", n, r.Len())
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	progBytes, err := section()
	if err != nil {
		return nil, nil, err
	}
	memBytes, err := section()
	if err != nil {
		return nil, nil, err
	}
	if r.Len() != 0 {
		return nil, nil, fmt.Errorf("server: %d trailing bytes in program bundle", r.Len())
	}
	p := new(isa.Program)
	if err := p.UnmarshalBinary(progBytes); err != nil {
		return nil, nil, err
	}
	image := arch.NewMemory()
	if err := image.UnmarshalBinary(memBytes); err != nil {
		return nil, nil, err
	}
	return p, image, nil
}

// Bundle-fetch retries. A refused or reset connection usually means the
// source coordinator is going down, and the connection carrying the
// requester's own job from it is severed a moment later; retrying such
// transport errors for up to ~150 ms lets buildProgram see the requester
// die instead of compiling on a dead job's behalf. HTTP status, checksum
// and timeout failures are final.
const (
	bundleFetchRetries    = 4
	bundleFetchRetryDelay = 10 * time.Millisecond
)

// fetchProgram retrieves and verifies the bundle ref points at, retrying
// transport errors while ctx is live (see bundleFetchRetries).
func (s *Server) fetchProgram(ctx context.Context, ref *ProgramRef) (*isa.Program, *arch.Memory, error) {
	delay := bundleFetchRetryDelay
	for try := 0; ; try++ {
		p, image, err := s.fetchProgramOnce(ctx, ref)
		var ue *url.Error
		if err == nil || try == bundleFetchRetries || ctx.Err() != nil ||
			!errors.As(err, &ue) || ue.Timeout() {
			return p, image, err
		}
		select {
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-time.After(delay):
		}
		delay *= 2
	}
}

// fetchProgramOnce makes one bundle fetch. The sum check makes the fetch
// self-validating: a stale or corrupted bundle is rejected and the caller
// falls back to a local build. The fetch runs under the triggering
// request's context, so a dead requester never keeps a fetch to a dead
// coordinator hanging.
func (s *Server) fetchProgramOnce(ctx context.Context, ref *ProgramRef) (*isa.Program, *arch.Memory, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ref.Source+"/v1/fabric/program?key="+url.QueryEscape(ref.Key), nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := s.fabricClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, nil, fmt.Errorf("bundle fetch: status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != ref.Sum {
		return nil, nil, fmt.Errorf("bundle sum mismatch: got %s, want %s", got, ref.Sum)
	}
	return DecodeProgramBundle(data)
}

// errNotCoordinator rejects a fabric endpoint on a daemon whose dispatcher
// does not support it (or that has no dispatcher at all).
func errNotCoordinator(capability string) error {
	return apiErrorf(http.StatusNotFound, CodeNotCoordinator,
		"this endpoint requires a coordinator started with -coordinator",
		"daemon is not a coordinator with %s support", capability)
}

// parseJoinURL validates a join/leave worker URL: absolute http(s) with a
// host, no query or fragment, normalized without a trailing slash.
func parseJoinURL(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" ||
		u.RawQuery != "" || u.Fragment != "" {
		return "", apiErrorf(http.StatusBadRequest, CodeBadJoin,
			"url must be the worker's absolute http(s) base URL, e.g. http://host:9190",
			"bad worker url %q", raw)
	}
	u.Path = ""
	return u.String(), nil
}

func (s *Server) handleFabricJoin(w http.ResponseWriter, r *http.Request) {
	s.handleMembership(w, r, true)
}

func (s *Server) handleFabricLeave(w http.ResponseWriter, r *http.Request) {
	s.handleMembership(w, r, false)
}

// handleMembership serves join (lease create/renew) and leave. Leave is
// idempotent: leaving twice answers 200 both times with the current
// member list.
func (s *Server) handleMembership(w http.ResponseWriter, r *http.Request, join bool) {
	if r.Method != http.MethodPost {
		writeError(w, errMethodNotAllowed(http.MethodPost))
		return
	}
	m, ok := s.cfg.Dispatcher.(Membership)
	if !ok {
		writeError(w, errNotCoordinator("membership"))
		return
	}
	var req JoinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, errBadBody(err))
		return
	}
	workerURL, err := parseJoinURL(req.URL)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := JoinResponse{SchemaVersion: APISchemaVersion}
	if join {
		ttl, members := m.Join(workerURL)
		resp.TTLMS = ttl.Milliseconds()
		resp.Members = members
	} else {
		m.Leave(workerURL)
		resp.Members = m.Members()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFabricProgram(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, errMethodNotAllowed(http.MethodGet))
		return
	}
	p, ok := s.cfg.Dispatcher.(ProgramProvider)
	if !ok {
		writeError(w, errNotCoordinator("program sharing"))
		return
	}
	key := r.URL.Query().Get("key")
	data, ok := p.ProgramBundle(key)
	if !ok {
		writeError(w, apiErrorf(http.StatusNotFound, CodeUnknownProgram,
			"the coordinator only serves bundles it has built or restored",
			"no program bundle for key %q", key))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}
