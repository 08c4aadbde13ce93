package benchio

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestMergeKeepsOtherEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := Merge(path, "serving", map[string]any{"fps": 1}); err != nil {
		t.Fatal(err)
	}
	if err := Merge(path, "micro.proto", "kept"); err != nil {
		t.Fatal(err)
	}
	if err := Merge(path, "micro.RunPacket", map[string]any{"median": 2}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["serving"]["fps"] != 1.0 || doc["micro"]["proto"] != "kept" || doc["micro"]["RunPacket"] == nil {
		t.Fatalf("merge lost an entry: %s", b)
	}
}

func TestMergeRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Merge(path, "k", 1); err == nil {
		t.Fatal("merge over a corrupt file must fail rather than overwrite it")
	}
}

func TestSpreadOf(t *testing.T) {
	got := SpreadOf([]float64{5, 1, 3, 2})
	if got != (Spread{Median: 2.5, Min: 1, Max: 5, N: 4}) {
		t.Fatalf("SpreadOf = %+v", got)
	}
	if SpreadOf(nil) != (Spread{}) {
		t.Fatal("empty spread must be zero")
	}
}
