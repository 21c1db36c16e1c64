// Package store is the campaign server's persistence layer: a
// content-addressed object store for finished reports, a spec-digest index
// that makes identical campaign submissions dedup to one stored report,
// per-campaign metadata records, and the on-disk homes of campaign
// journals and shard-event traces. Everything lives under one root
// directory:
//
//	objects/<aa>/<sha256>   immutable blobs, addressed by content hash
//	reports/<spec-digest>   index: spec digest → report object hash
//	campaigns/<id>.json     campaign records (queue state, timings)
//	journals/<id>.journal   dist coordinator journals (resume)
//	events/<id>.jsonl       shard-lifecycle and convergence event traces
//
// Objects, index entries and campaign records are written via temp-file +
// rename, so a crashed writer never leaves a torn blob behind; re-putting
// identical content is an idempotent no-op. The rename is atomic but not
// durable: neither the temp file nor its directory is synced, so after a
// power loss (a process crash is not one) a record, report object or index
// entry may be missing or hold its previous version. The dist journals are
// the store's only durable files: the coordinator syncs each line before it
// acknowledges what the line records. Syncing here as well would put
// file-system waits on every campaign's path.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Store is a content-addressed campaign store rooted at one directory.
type Store struct {
	dir string
}

// Digest returns the canonical content address of any JSON-serializable
// value: the SHA-256 of its encoding. encoding/json emits struct fields in
// declaration order and sorts map keys, so the address is deterministic
// across processes for the wire types this repo stores.
func Digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic("store: value not serializable: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"objects", "reports", "campaigns", "journals", "events"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) objectPath(hash string) string {
	return filepath.Join(s.dir, "objects", hash[:2], hash)
}

// PutObject stores a blob under its content hash and returns the hash.
// Identical content is stored once.
func (s *Store) PutObject(data []byte) (string, error) {
	sum := sha256.Sum256(data)
	hash := hex.EncodeToString(sum[:])
	path := s.objectPath(hash)
	if _, err := os.Stat(path); err == nil {
		return hash, nil // content-addressed: already present means identical
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	if err := writeAtomic(path, data); err != nil {
		return "", err
	}
	return hash, nil
}

// GetObject returns the blob stored under hash.
func (s *Store) GetObject(hash string) ([]byte, error) {
	if len(hash) < 3 {
		return nil, fmt.Errorf("store: malformed object hash %q", hash)
	}
	data, err := os.ReadFile(s.objectPath(hash))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return data, nil
}

// PutReport stores a finished report blob and indexes it under the
// submitting spec's digest, so a later submission of the same spec is
// served from the store instead of re-run. Returns the report's object
// hash.
func (s *Store) PutReport(specDigest string, data []byte) (string, error) {
	hash, err := s.PutObject(data)
	if err != nil {
		return "", err
	}
	if err := writeAtomic(filepath.Join(s.dir, "reports", specDigest), []byte(hash+"\n")); err != nil {
		return "", err
	}
	return hash, nil
}

// ReportHash returns the object hash indexed under a spec digest, if any.
func (s *Store) ReportHash(specDigest string) (string, bool) {
	data, err := os.ReadFile(filepath.Join(s.dir, "reports", specDigest))
	if err != nil {
		return "", false
	}
	return strings.TrimSpace(string(data)), true
}

// GetReport returns the stored report blob for a spec digest plus its
// object hash (the caller's ETag).
func (s *Store) GetReport(specDigest string) ([]byte, string, error) {
	hash, ok := s.ReportHash(specDigest)
	if !ok {
		return nil, "", os.ErrNotExist
	}
	data, err := s.GetObject(hash)
	return data, hash, err
}

// JournalPath is where a campaign's dist coordinator journal lives; the
// coordinator owns the file's format and fsync discipline.
func (s *Store) JournalPath(id string) string {
	return filepath.Join(s.dir, "journals", id+".journal")
}

// HasJournal reports whether a campaign ever journaled a shard.
func (s *Store) HasJournal(id string) bool {
	_, err := os.Stat(s.JournalPath(id))
	return err == nil
}

// EventsPath is where a campaign's shard-lifecycle JSONL trace lives.
func (s *Store) EventsPath(id string) string {
	return filepath.Join(s.dir, "events", id+".jsonl")
}

// SaveCampaign persists one campaign record (any JSON-serializable value)
// under its id, replacing a previous record atomically.
func (s *Store) SaveCampaign(id string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return writeAtomic(filepath.Join(s.dir, "campaigns", id+".json"), append(data, '\n'))
}

// LoadCampaigns calls fn with every persisted campaign record, in
// unspecified order. fn errors abort the walk.
func (s *Store) LoadCampaigns(fn func(id string, data []byte) error) error {
	entries, err := os.ReadDir(filepath.Join(s.dir, "campaigns"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, "campaigns", e.Name()))
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := fn(name, data); err != nil {
			return err
		}
	}
	return nil
}

// writeAtomic writes data via temp-file + rename so readers never observe
// a torn file. The temp file is removed on failure only: after a successful
// rename there is none left to remove.
func writeAtomic(path string, data []byte) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
