package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/pebble"
)

// testKey fabricates distinct keys for LRU tests without needing real
// instances.
func testKey(i int) Key { return Key{Hi: uint64(i) + 1, Lo: ^uint64(i)} }

// stringCodec is a trivial Codec for file-store tests.
type stringCodec struct{}

func (stringCodec) Encode(v any) ([]byte, error) {
	s, ok := v.(string)
	if !ok {
		return nil, fmt.Errorf("stringCodec: %T", v)
	}
	return []byte(s), nil
}

func (stringCodec) Decode(data []byte) (any, error) { return string(data), nil }

func TestGetPutBasics(t *testing.T) {
	c := New(Options{})
	k := testKey(1)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, Entry{Value: "v1", Size: 10})
	e, ok := c.Get(k)
	if !ok || e.Value != "v1" {
		t.Fatalf("Get = %+v, %v; want v1 hit", e, ok)
	}
	// Overwrite replaces the value and adjusts the byte accounting.
	c.Put(k, Entry{Value: "v2", Size: 30})
	if e, _ := c.Get(k); e.Value != "v2" {
		t.Fatalf("after overwrite Get = %+v", e)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 30 {
		t.Errorf("stats = %+v; want 2 hits, 1 miss, 1 entry, 30 bytes", st)
	}
}

func TestEvictionByEntries(t *testing.T) {
	c := New(Options{MaxEntries: 2})
	c.Put(testKey(1), Entry{Value: 1})
	c.Put(testKey(2), Entry{Value: 2})
	// Touch key 1 so key 2 is the LRU victim when key 3 arrives.
	if _, ok := c.Get(testKey(1)); !ok {
		t.Fatal("key 1 missing before eviction")
	}
	c.Put(testKey(3), Entry{Value: 3})
	if _, ok := c.Get(testKey(2)); ok {
		t.Error("LRU victim (key 2) survived eviction")
	}
	if _, ok := c.Get(testKey(1)); !ok {
		t.Error("recently used key 1 was evicted")
	}
	if _, ok := c.Get(testKey(3)); !ok {
		t.Error("newest key 3 was evicted")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v; want 1 eviction, 2 entries", st)
	}
}

func TestEvictionByBytes(t *testing.T) {
	c := New(Options{MaxBytes: 100})
	c.Put(testKey(1), Entry{Value: 1, Size: 60})
	c.Put(testKey(2), Entry{Value: 2, Size: 60}) // 120 > 100: key 1 evicted
	if _, ok := c.Get(testKey(1)); ok {
		t.Error("key 1 survived byte-bound eviction")
	}
	if st := c.Stats(); st.Bytes != 60 || st.Entries != 1 || st.Evictions != 1 {
		t.Errorf("stats = %+v; want 60 bytes, 1 entry, 1 eviction", st)
	}
	// An entry larger than the whole bound is not kept at all (it would
	// evict everything else for one resident).
	c.Put(testKey(3), Entry{Value: 3, Size: 1000})
	if _, ok := c.Get(testKey(3)); ok {
		t.Error("entry larger than MaxBytes was kept in memory")
	}
	if st := c.Stats(); st.Bytes != 60 {
		t.Errorf("oversized Put changed byte accounting: %+v", st)
	}
}

// TestGetPartialBudgetGuard is the laundering guard at the cache layer: a
// bracket computed under budget B is served only to callers whose own
// budget is ≥ B, and never to unbounded callers.
func TestGetPartialBudgetGuard(t *testing.T) {
	c := New(Options{})
	k := testKey(7)
	c.Put(k, Entry{Value: "bracket", Budget: 1000})

	if _, ok := c.GetPartial(k, 1000); !ok {
		t.Error("equal budget was refused")
	}
	if _, ok := c.GetPartial(k, 5000); !ok {
		t.Error("looser budget was refused")
	}
	if _, ok := c.GetPartial(k, 8); ok {
		t.Error("tighter budget was served a wide-budget bracket")
	}
	if _, ok := c.GetPartial(k, 0); ok {
		t.Error("unbounded caller was served a partial bracket")
	}
	st := c.Stats()
	if st.PartialHits != 2 || st.PartialMisses != 2 || st.BudgetRejects != 2 {
		t.Errorf("stats = %+v; want 2 partial hits, 2 partial misses, 2 budget rejects", st)
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Codec: stringCodec{}}
	k := testKey(42)

	c1 := New(opts)
	c1.Put(k, Entry{Value: "persisted", Size: 9, Budget: 123})

	// A fresh cache over the same directory must answer from disk.
	c2 := New(opts)
	e, ok := c2.Get(k)
	if !ok || e.Value != "persisted" {
		t.Fatalf("disk Get = %+v, %v", e, ok)
	}
	if e.Budget != 123 {
		t.Errorf("blob Budget = %d, want 123", e.Budget)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.DiskErrors != 0 {
		t.Errorf("stats = %+v; want 1 disk hit, 0 errors", st)
	}
	// The loaded entry is promoted: a second Get stays in memory.
	if _, ok := c2.Get(k); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Errorf("second Get went to disk: %+v", st)
	}

	// The partial serve guard applies to disk-loaded entries too.
	c3 := New(opts)
	if _, ok := c3.GetPartial(k, 8); ok {
		t.Error("tight-budget caller served a disk bracket stored under budget 123")
	}
	c4 := New(opts)
	if e, ok := c4.GetPartial(k, 123); !ok || e.Value != "persisted" {
		t.Errorf("equal-budget disk GetPartial = %+v, %v", e, ok)
	}
}

func TestFileStoreMalformedBlob(t *testing.T) {
	dir := t.TempDir()
	c := New(Options{Dir: dir, Codec: stringCodec{}})
	k := testKey(9)
	if err := os.WriteFile(filepath.Join(dir, k.String()+blobExt), []byte("not a blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Error("malformed blob served as a hit")
	}
	if st := c.Stats(); st.DiskErrors != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v; want the malformed blob to degrade to a counted miss", st)
	}
}

// TestFileStoreKeyVersionMiss: blobs a file store holds from an older
// key version — written by an engine whose Results differed — must be
// misses for the current version, in both key domains, while still
// being readable under the key they were written with.
func TestFileStoreKeyVersionMiss(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Codec: stringCodec{}}
	in := pebble.MustInstance(gen.Grid2D(2, 3), pebble.MPP(2, 3, 2))
	sc := SolverConfig{Heuristic: 2, Dominance: true, MaxStates: 1000}
	oldComplete := hashWords(appendKeyWords(in, sc, keyVersion-1, tagComplete, true))
	oldPartial := hashWords(appendKeyWords(in, sc, keyVersion-1, tagPartial, false))

	c1 := New(opts)
	c1.Put(oldComplete, Entry{Value: "old optimum"})
	c1.Put(oldPartial, Entry{Value: "old bracket", Budget: 1000})

	c2 := New(opts)
	if e, ok := c2.Get(KeyOf(in, sc)); ok {
		t.Errorf("current-version Get served an old-version blob: %+v", e)
	}
	if e, ok := c2.GetPartial(PartialKeyOf(in, sc), 1000); ok {
		t.Errorf("current-version GetPartial served an old-version blob: %+v", e)
	}
	if st := c2.Stats(); st.DiskHits != 0 || st.DiskErrors != 0 {
		t.Errorf("stats = %+v; want clean misses (no disk hit, no disk error)", st)
	}
	if e, ok := c2.Get(oldComplete); !ok || e.Value != "old optimum" {
		t.Errorf("old-version key no longer reads its own blob: %+v, %v", e, ok)
	}
}

// TestDirWithoutCodecIsMemoryOnly: a Dir with no Codec cannot serialize,
// so the cache silently stays memory-only rather than erroring per Put.
func TestDirWithoutCodecIsMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	c := New(Options{Dir: dir})
	c.Put(testKey(1), Entry{Value: "v"})
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("blobs written without a codec: %v", ents)
	}
	if _, ok := c.Get(testKey(1)); !ok {
		t.Error("memory entry missing")
	}
}
