package distsurvey

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/obs"
)

// Crash-safe study state: a state directory holds one manifest.json
// naming the study (config hash + spec) and one shard-NNNN.json per
// completed shard. Every file is written atomically — temp file,
// fsync, rename, directory fsync — so a file either exists complete or
// not at all; a checkpoint that is nevertheless truncated or corrupt
// (torn disk, manual edit) is skipped on load and the shard simply
// re-runs. The core.Builder's duplicate rejection guarantees a shard
// is merged exactly once no matter how a resume interleaves with
// re-leases.

// manifestName and the shard file pattern are the state directory's
// entire layout.
const manifestName = "manifest.json"

// manifest pins which study a state directory belongs to. The config
// hash — whose preimage names the study kind and the format version
// (core's specHashVersion) — is what every integrity check compares;
// the spec rides along for whoever inspects the directory.
type manifest struct {
	ConfigHash string `json:"config_hash"`
	Spec       any    `json:"spec"`
}

// ShardCheckpoint is one completed shard's durable record: the outcome
// the report needs plus the worker's metrics snapshot, hash-stamped so
// a file from a different study can never be merged.
type ShardCheckpoint[O core.Sharded] struct {
	ConfigHash string        `json:"config_hash"`
	Outcome    O             `json:"outcome"`
	Obs        *obs.Snapshot `json:"obs,omitempty"`
}

// absent reports whether a decoded outcome is missing (the zero O — a
// nil pointer): JSON null and an omitted key both decode to it.
func absent[O comparable](o O) bool {
	var none O
	return o == none
}

// Checkpoint is the survey's ShardCheckpoint, the spelling the
// benchmark module (bench/) compiles against.
type Checkpoint = ShardCheckpoint[*core.ShardOutcome]

// StateMismatchError is the typed refusal for resuming (or starting
// over) a state directory recorded under a different config hash.
type StateMismatchError struct {
	Dir  string
	Want string // hash of the study being run
	Got  string // hash recorded in the directory
}

func (e *StateMismatchError) Error() string {
	return fmt.Sprintf("distsurvey: state dir %s belongs to study %s, not %s — delete it or rerun the original flags with -resume",
		e.Dir, e.Got, e.Want)
}

// StateExistsError is the typed refusal for starting a fresh run over
// a state directory that already holds a study: without -resume that
// would silently orphan (or worse, later double-merge) its shards.
type StateExistsError struct {
	Dir string
}

func (e *StateExistsError) Error() string {
	return fmt.Sprintf("distsurvey: state dir %s already holds study state — pass -resume to continue it or delete the directory",
		e.Dir)
}

// Store reads and writes one study's state directory.
type Store[O core.Sharded] struct {
	dir  string
	hash string
}

// OpenStore opens (or initializes) the state directory for the study
// spec describes. With resume, the directory must already hold a
// matching manifest and the surviving checkpoints are returned;
// without it, the directory must not hold study state yet. The skipped
// count reports checkpoints dropped as corrupt.
func OpenStore[S core.Study[P, O, R], P, O core.Sharded, R any](dir string, spec S, resume bool) (store *Store[O], cps []*ShardCheckpoint[O], skipped int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	s := &Store[O]{dir: dir, hash: spec.Hash()}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		var m manifest
		if jerr := json.Unmarshal(data, &m); jerr != nil || m.ConfigHash == "" {
			// A torn manifest means the initial run died before its first
			// checkpoint: nothing can be resumed, nothing can be lost.
			if resume {
				return nil, nil, 0, fmt.Errorf("distsurvey: state dir %s has an unreadable manifest; nothing to resume", dir)
			}
		} else {
			if !resume {
				return nil, nil, 0, &StateExistsError{Dir: dir}
			}
			if m.ConfigHash != s.hash {
				return nil, nil, 0, &StateMismatchError{Dir: dir, Want: s.hash, Got: m.ConfigHash}
			}
			cps, skipped = s.load()
			return s, cps, skipped, nil
		}
	case os.IsNotExist(err):
		if resume {
			return nil, nil, 0, fmt.Errorf("distsurvey: state dir %s has no manifest; nothing to resume", dir)
		}
	default:
		return nil, nil, 0, err
	}
	m, err := json.Marshal(manifest{ConfigHash: s.hash, Spec: spec})
	if err != nil {
		return nil, nil, 0, err
	}
	if err := writeFileAtomic(dir, manifestName, m); err != nil {
		return nil, nil, 0, err
	}
	return s, nil, 0, nil
}

// shardFile names shard index's checkpoint.
func shardFile(index int) string {
	return fmt.Sprintf("shard-%04d.json", index)
}

// Write durably records one completed shard. The write is atomic: a
// crash at any point leaves either the previous state or the complete
// new file, never a torn one.
func (s *Store[O]) Write(cp *ShardCheckpoint[O]) error {
	if cp == nil || absent(cp.Outcome) {
		return fmt.Errorf("distsurvey: refusing to checkpoint an empty outcome")
	}
	cp.ConfigHash = s.hash
	data, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	return writeFileAtomic(s.dir, shardFile(cp.Outcome.ShardIndex()), data)
}

// load scans the directory for shard checkpoints, skipping (and
// counting) any that are corrupt, truncated, hash-mismatched, or
// misfiled — those shards just re-run.
func (s *Store[O]) load() (cps []*ShardCheckpoint[O], skipped int) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, 0
	}
	for _, e := range entries {
		var index int
		if n, err := fmt.Sscanf(e.Name(), "shard-%d.json", &index); n != 1 || err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, e.Name()))
		if err != nil {
			skipped++
			continue
		}
		cp := &ShardCheckpoint[O]{}
		if err := json.Unmarshal(data, cp); err != nil || cp.ConfigHash != s.hash ||
			absent(cp.Outcome) || cp.Outcome.ShardIndex() != index {
			skipped++
			continue
		}
		cps = append(cps, cp)
	}
	return cps, skipped
}

// writeFileAtomic writes name under dir via temp file + fsync + rename
// + directory fsync — the strongest crash-safety plain files offer.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()        // the write error is the one worth reporting
		_ = os.Remove(tmpName) // best-effort cleanup of the failed temp
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()        // the sync error is the one worth reporting
		_ = os.Remove(tmpName) // best-effort cleanup of the failed temp
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName) // best-effort cleanup of the failed temp
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		_ = os.Remove(tmpName) // best-effort cleanup of the failed temp
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	// A close error after the sync carries nothing the sync error
	// doesn't; the rename itself is already durable or not.
	_ = d.Close()
	return err
}
