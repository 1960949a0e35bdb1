package placecache

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"

	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/wal"
)

var (
	obsPersistLoaded  = obs.GetCounter("placecache.persist.loaded")
	obsPersistSkipped = obs.GetCounter("placecache.persist.skipped")
)

// record is the on-disk form of one (Key, Entry) pair: the JSON payload
// of one wal record.
type record struct {
	FP         string `json:"fp"` // 32 hex digits, Fingerprint.String
	Policy     string `json:"policy"`
	Seed       int64  `json:"seed"`
	Iterations int    `json:"iterations"`
	Restarts   int    `json:"restarts"`
	Profile    uint64 `json:"profile"`
	Cost       int64  `json:"cost"`
	Placement  []int  `json:"placement"`
}

func parseFP(s string) (graph.Fingerprint, error) {
	var fp graph.Fingerprint
	if len(s) != 32 {
		return fp, fmt.Errorf("fingerprint %q: want 32 hex digits", s)
	}
	hi, err := strconv.ParseUint(s[:16], 16, 64)
	if err != nil {
		return fp, err
	}
	lo, err := strconv.ParseUint(s[16:], 16, 64)
	if err != nil {
		return fp, err
	}
	return graph.Fingerprint{hi, lo}, nil
}

// openLog opens the cache's log in dir/placecache and replays it into c,
// oldest first, so LRU recency mirrors append order. The wal has already
// cut a torn tail and quarantined a corrupt region, so every payload
// passed its CRC; a payload that still fails to decode, or decodes to a
// bad fingerprint or a non-permutation, is skipped and counted. Appends
// are not fsynced (SyncNever syncs only on rotation and Close): a crash
// may lose recent entries, which a cache can afford, but the log never
// serves a wrong one. Runs only from New, before the Cache is published,
// so it holds mu by exclusivity.
//
//dwmlint:holds mu
func (c *Cache) openLog(dir string) (*wal.Log, error) {
	l, err := wal.Open(wal.Options{
		Dir:           filepath.Join(dir, "placecache"),
		Policy:        wal.SyncNever,
		MetricsPrefix: "placecache.wal",
	})
	if err != nil {
		return nil, err
	}
	err = l.Replay(func(payload []byte) error {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			obsPersistSkipped.Inc()
			return nil
		}
		fp, err := parseFP(rec.FP)
		if err != nil || layout.Placement(rec.Placement).Validate(len(rec.Placement)) != nil {
			obsPersistSkipped.Inc()
			return nil
		}
		k := Key{
			FP:         fp,
			Policy:     rec.Policy,
			Seed:       rec.Seed,
			Iterations: rec.Iterations,
			Restarts:   rec.Restarts,
		}
		c.put(k, Entry{Placement: rec.Placement, Cost: rec.Cost, Profile: rec.Profile})
		obsPersistLoaded.Inc()
		return nil
	})
	if err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// appendRecord writes one record to the log. Put calls it under the
// cache lock, so the log's order is the stores' order. A failed write
// only costs the entry its persistence; the wal counts it in
// placecache.wal.append_errors.
//
//dwmlint:holds mu
func (c *Cache) appendRecord(k Key, e Entry) {
	// Marshal cannot fail: record holds only strings and integers.
	payload, _ := json.Marshal(record{
		FP:         k.FP.String(),
		Policy:     k.Policy,
		Seed:       k.Seed,
		Iterations: k.Iterations,
		Restarts:   k.Restarts,
		Profile:    e.Profile,
		Cost:       e.Cost,
		Placement:  e.Placement,
	})
	_ = c.log.Append(payload)
}
