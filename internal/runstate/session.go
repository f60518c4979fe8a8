package runstate

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"skipper/internal/faults"
	"skipper/internal/serialize"
	"skipper/internal/tensor"
)

const (
	sessionMagic = "SKPS"
	// sessionVersion 2 holds a LIF layer's membrane "layerNN.u" alone; version
	// 1 also held its spikes "layerNN.o", which the next step now reads back
	// off U, and is refused.
	sessionVersion = 2

	// SessionSuffix is the filename suffix of a durable session record.
	SessionSuffix = ".skps"
)

// SessionMeta is the JSON head of a streaming-session record: the resume
// coordinates that are cheap to inspect without decoding the membrane blob.
type SessionMeta struct {
	SavedAt time.Time `json:"saved_at"`
	ID      string    `json:"id"`
	// Window is the next window sequence number the session expects.
	Window int `json:"window"`
	// Steps is the timestep cursor (total timesteps advanced since t = 0).
	Steps int `json:"steps"`
	Batch int `json:"batch"`
	// Seed is the session's RNG identity, echoed back so a client can
	// verify it resumed the stream it opened.
	Seed uint64 `json:"seed"`
	// SkipThreshold is the session's activity gate at capture time.
	SkipThreshold int `json:"skip_threshold"`
	// ModelVersion records which serve-side checkpoint generation the
	// session's weights were pinned at — forensics; restore re-pins to the
	// restoring server's current weights.
	ModelVersion uint64 `json:"model_version,omitempty"`
	// WindowsSkipped / WindowsTotal carry the session's skip accounting
	// across a migration so fleet-wide counters stay truthful.
	WindowsSkipped int64 `json:"windows_skipped,omitempty"`
	WindowsTotal   int64 `json:"windows_total,omitempty"`
}

// SessionRecord is one durable snapshot of a streaming session:
//
//	magic "SKPS" | version u32 |
//	meta len u32 | meta JSON, as Encode writes it |
//	states len u32 | membrane tensors ("SKPT" container) |
//	crc32 (IEEE) of everything before it
//
// It is both the on-disk format (SessionStore) and the wire payload of the
// SessionExport/SessionImport frames, so a record written by a snapshot,
// read back after a restart, or shipped to another replica restores the
// identical membrane bits everywhere.
type SessionRecord struct {
	Meta   SessionMeta
	states []byte // "SKPT" membrane-state container
}

// NewSessionRecord packages a session's membrane state.
func NewSessionRecord(meta SessionMeta, states []tensor.Named) (*SessionRecord, error) {
	var buf bytes.Buffer
	if err := serialize.SaveTensors(&buf, states); err != nil {
		return nil, fmt.Errorf("runstate: capturing session state: %w", err)
	}
	return &SessionRecord{Meta: meta, states: buf.Bytes()}, nil
}

// States decodes the membrane tensors.
func (r *SessionRecord) States() ([]tensor.Named, error) {
	ts, err := serialize.LoadTensors(bytes.NewReader(r.states))
	if err != nil {
		return nil, fmt.Errorf("runstate: restoring session state: %w", err)
	}
	return ts, nil
}

// Encode serialises the record with its trailing checksum — the byte image
// SessionStore writes and SessionExport ships.
func (r *SessionRecord) Encode() ([]byte, error) {
	meta, err := json.Marshal(r.Meta)
	if err != nil {
		return nil, fmt.Errorf("runstate: encoding session meta: %w", err)
	}
	var body bytes.Buffer
	body.WriteString(sessionMagic)
	writeU32(&body, sessionVersion)
	for _, section := range [][]byte{meta, r.states} {
		writeU32(&body, uint32(len(section)))
		body.Write(section)
	}
	writeU32(&body, crc32.ChecksumIEEE(body.Bytes()))
	return body.Bytes(), nil
}

// DecodeSession parses and verifies an encoded session record. Truncation is
// reported as serialize.ErrTruncated so callers can classify a torn write.
func DecodeSession(raw []byte) (*SessionRecord, error) {
	if len(raw) < len(sessionMagic)+4+2*4+4 {
		return nil, fmt.Errorf("%w (session record, %d bytes)", serialize.ErrTruncated, len(raw))
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("runstate: session record checksum mismatch (corrupt)")
	}
	br := bytes.NewReader(body)
	head := make([]byte, len(sessionMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("runstate: reading session magic: %w", err)
	}
	if string(head) != sessionMagic {
		return nil, fmt.Errorf("runstate: bad magic %q (not a session record)", head)
	}
	ver, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if ver != sessionVersion {
		return nil, fmt.Errorf("runstate: unsupported session record version %d", ver)
	}
	sections := make([][]byte, 2)
	for i := range sections {
		n, err := readU32(br)
		if err != nil {
			return nil, err
		}
		if int(n) > br.Len() {
			return nil, fmt.Errorf("%w (session section %d of %d bytes exceeds remaining %d)",
				serialize.ErrTruncated, i, n, br.Len())
		}
		sections[i] = make([]byte, n)
		if _, err := io.ReadFull(br, sections[i]); err != nil {
			return nil, fmt.Errorf("runstate: reading session section %d: %w", i, err)
		}
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("runstate: %d trailing bytes after session record", br.Len())
	}
	r := &SessionRecord{states: sections[1]}
	if err := json.Unmarshal(sections[0], &r.Meta); err != nil {
		return nil, fmt.Errorf("runstate: decoding session meta: %w", err)
	}
	// Only the meta Encode writes is accepted, so a record decodes to
	// exactly the bytes it re-encodes to.
	if canon, err := json.Marshal(r.Meta); err != nil || !bytes.Equal(canon, sections[0]) {
		return nil, fmt.Errorf("runstate: session meta is not in canonical form")
	}
	return r, nil
}

// ValidSessionID reports whether an id is safe to use as a filename stem:
// non-empty, no separators, no dot-prefix, printable ASCII subset.
func ValidSessionID(id string) bool {
	if id == "" || len(id) > 128 || strings.HasPrefix(id, ".") {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// SessionStore durably persists session records, one atomic file per
// session, in a directory. Same crash contract as the training manifest: a
// crash at any byte boundary leaves the previous complete record.
type SessionStore struct {
	Dir   string
	FS    faults.FS
	Clock faults.Clock
}

// OpenSessions creates (if needed) the session directory and returns its
// store. A nil fs or clock selects the real filesystem and wall clock.
func OpenSessions(dir string, fsys faults.FS, clock faults.Clock) (*SessionStore, error) {
	if fsys == nil {
		fsys = faults.OS
	}
	if clock == nil {
		clock = faults.Wall
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstate: creating session dir: %w", err)
	}
	return &SessionStore{Dir: dir, FS: fsys, Clock: clock}, nil
}

// Path returns a session record's location.
func (s *SessionStore) Path(id string) string {
	return filepath.Join(s.Dir, id+SessionSuffix)
}

// Exists reports whether a record for id is present.
func (s *SessionStore) Exists(id string) bool {
	if !ValidSessionID(id) {
		return false
	}
	_, err := s.FS.Stat(s.Path(id))
	return err == nil
}

// Save stamps and atomically persists a record, replacing any previous one.
func (s *SessionStore) Save(r *SessionRecord) error {
	if !ValidSessionID(r.Meta.ID) {
		return fmt.Errorf("runstate: invalid session id %q", r.Meta.ID)
	}
	r.Meta.SavedAt = s.Clock.Now().UTC()
	data, err := r.Encode()
	if err != nil {
		return err
	}
	return writeAtomic(s.FS, s.Path(r.Meta.ID), data)
}

// Load reads and verifies the record for id.
func (s *SessionStore) Load(id string) (*SessionRecord, error) {
	if !ValidSessionID(id) {
		return nil, fmt.Errorf("runstate: invalid session id %q", id)
	}
	f, err := s.FS.Open(s.Path(id))
	if err != nil {
		return nil, fmt.Errorf("runstate: opening session record: %w", err)
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("runstate: reading session record: %w", err)
	}
	return DecodeSession(raw)
}

// Remove deletes the record for id (no error if absent).
func (s *SessionStore) Remove(id string) error {
	if !ValidSessionID(id) {
		return fmt.Errorf("runstate: invalid session id %q", id)
	}
	if err := s.FS.Remove(s.Path(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("runstate: removing session record: %w", err)
	}
	return nil
}

// List returns the ids of all stored sessions, in directory order. It reads
// the real directory (the FS seam has no ReadDir); the store is only ever
// pointed at real directories, fault injection covers the write path.
func (s *SessionStore) List() ([]string, error) {
	ents, err := os.ReadDir(s.Dir)
	if err != nil {
		return nil, fmt.Errorf("runstate: listing session dir: %w", err)
	}
	var ids []string
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, SessionSuffix) {
			ids = append(ids, strings.TrimSuffix(name, SessionSuffix))
		}
	}
	return ids, nil
}
