package core

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"backfi/internal/fault"
	"backfi/internal/reader"
	"backfi/internal/tag"
	"backfi/internal/wifi"
)

// TestSlotPoolBoundedByBytes sends frames of many distinct payload
// lengths — each a new burst shape — through links sharing one pool,
// and pins that the pool's retained bytes and the process heap stay
// within the pool's byte bound however many shapes go by.
func TestSlotPoolBoundedByBytes(t *testing.T) {
	const bound = 1 << 20
	pool := newSlotPool(0, bound)
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	before := heapInuse()
	shapes := map[int]bool{}
	for n := 8; n <= 320; n += 24 {
		cfg := DefaultLinkConfig(2)
		cfg.Seed = int64(500 + n)
		l, err := NewLink(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l.SetSlotPool(pool)
		if _, err := l.RunPacket(l.RandomPayload(n)); err != nil {
			t.Fatal(err)
		}
		shapes[l.sizing(tagNeed(l.Tag.Cfg, n))] = true
		if pool.bytes > bound {
			t.Fatalf("payload %d B: pool retains %d B, bound %d", n, pool.bytes, bound)
		}
	}
	if len(shapes) <= pool.Size() {
		t.Fatalf("%d shapes went by and %d are retained: nothing was evicted", len(shapes), pool.Size())
	}
	grew := int64(heapInuse()) - int64(before)
	t.Logf("%d shapes, %d retained (%d B); heap grew %d B", len(shapes), pool.Size(), pool.bytes, grew)
	if grew > bound+256<<10 {
		t.Fatalf("heap grew %d B over %d shapes, pool bound %d B", grew, len(shapes), bound)
	}
	runtime.KeepAlive(pool)
}

// TestSlotPoolOversizeNotRetained pins that a template larger than the
// bound serves its frame and is never kept.
func TestSlotPoolOversizeNotRetained(t *testing.T) {
	l, err := NewLink(DefaultLinkConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	pool := newSlotPool(0, 64<<10)
	ex, _, hit, err := pool.excitation(l.Tag, l.rate, l.Cfg.WiFiPSDUBytes, l.Scenario.TxPowerW(), 4)
	if err != nil || hit || len(ex.Samples())*16 <= 64<<10 {
		t.Fatalf("built %d B template (hit %v, err %v); want a miss over the 64 KiB bound", len(ex.Samples())*16, hit, err)
	}
	if pool.Size() != 0 || pool.bytes != 0 || len(pool.m) != 0 {
		t.Fatalf("oversize template retained: %d templates, %d B, %d map entries", pool.Size(), pool.bytes, len(pool.m))
	}
}

// TestSlotPoolBuildsOutsideLock stalls one shape's build and pins that
// lookups of another shape are served meanwhile, and that concurrent
// misses on the stalled shape share its single build.
func TestSlotPoolBuildsOutsideLock(t *testing.T) {
	l, err := NewLink(DefaultLinkConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	const stalled = 3
	release := make(chan struct{})
	var mu sync.Mutex
	builds := map[int]int{}
	defer func(orig func(wifi.Rate, int, float64, *tag.Tag, int) ([]complex128, int, error)) {
		buildTemplate = orig
	}(buildTemplate)
	orig := buildTemplate
	buildTemplate = func(rate wifi.Rate, psdu int, tx float64, tg *tag.Tag, nppdu int) ([]complex128, int, error) {
		mu.Lock()
		builds[nppdu]++
		mu.Unlock()
		if nppdu == stalled {
			<-release
		}
		return orig(rate, psdu, tx, tg, nppdu)
	}

	pool := NewSlotPool(0)
	get := func(nppdu int) ([]complex128, bool) {
		ex, _, hit, err := pool.excitation(l.Tag, l.rate, l.Cfg.WiFiPSDUBytes, l.Scenario.TxPowerW(), nppdu)
		if err != nil {
			t.Error(err)
		}
		return ex.Samples(), hit
	}
	get(1)

	const waiters = 4
	got := make([][]complex128, waiters)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = get(stalled)
		}()
	}
	// Wait for the stalled build to be in flight.
	for {
		mu.Lock()
		n := builds[stalled]
		mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	served := make(chan bool)
	go func() {
		_, hit := get(1)
		served <- hit
	}()
	select {
	case hit := <-served:
		if !hit {
			t.Fatal("cached shape rebuilt")
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("lookup of a cached shape waited on another shape's build")
	}

	close(release)
	wg.Wait()
	if builds[stalled] != 1 {
		t.Fatalf("%d concurrent misses ran %d builds, want 1", waiters, builds[stalled])
	}
	for i := range got {
		if len(got[i]) == 0 || &got[i][0] != &got[0][0] {
			t.Fatalf("waiter %d got a different template", i)
		}
	}
}

// TestSlotPoolCountsAndReleasesMemo pins the factor memo's lifetime: a
// retained template is counted at its samples plus the memo's bound,
// and once a new shape evicts it, its reader.Excitation — samples and
// memo — is unreachable.
func TestSlotPoolCountsAndReleasesMemo(t *testing.T) {
	l, err := NewLink(DefaultLinkConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	pool := newSlotPool(1, maxPoolBytes)
	l.SetSlotPool(pool)
	if _, err := l.RunPacket(l.RandomPayload(24)); err != nil {
		t.Fatal(err)
	}
	var ex *reader.Excitation
	for _, tpl := range pool.m {
		ex = tpl.ex
	}
	if want := len(ex.Samples())*16 + reader.MemoBytes; pool.Size() != 1 || pool.bytes != want {
		t.Fatalf("pool retains %d templates in %d B, want 1 in %d B", pool.Size(), pool.bytes, want)
	}
	released := make(chan struct{})
	runtime.SetFinalizer(ex, func(*reader.Excitation) { close(released) })
	ex = nil
	if _, err := l.RunPacket(l.RandomPayload(240)); err != nil {
		t.Fatal(err)
	}
	for range 100 {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("an evicted template's excitation and memo are still reachable")
}

// TestPooledMemoMatchesFreshTemplate sends the same faulted frames on
// two links of one seed: one keeps its pool, so from the second frame
// on every excitation-only fit is a memo hit; the other gets a new pool
// before every frame, so every fit builds its factor afresh. The
// results must agree bit for bit.
func TestPooledMemoMatchesFreshTemplate(t *testing.T) {
	prof := fault.Standard(0.1)
	cfg := DefaultLinkConfig(2)
	cfg.Seed = 77
	cfg.Faults = &prof
	pooled, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b []complex128) bool {
		for i := range a {
			if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
				math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
				return false
			}
		}
		return len(a) == len(b)
	}
	decoded := 0
	for f := range 12 {
		fresh.SetSlotPool(NewSlotPool(0))
		payload := make([]byte, 24)
		for i := range payload {
			payload[i] = byte(f*31 + i)
		}
		ra, errA := pooled.RunPacket(payload)
		rb, errB := fresh.RunPacket(payload)
		if fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("frame %d: pooled error %v, fresh %v", f, errA, errB)
		}
		if errA != nil {
			continue
		}
		a, b := ra.Decode, rb.Decode
		if !same(a.Hfb, b.Hfb) || !same(a.SymbolEstimates, b.SymbolEstimates) ||
			math.Float64bits(a.SNRdB) != math.Float64bits(b.SNRdB) || a.SIC != b.SIC ||
			a.FrameOK != b.FrameOK || !bytes.Equal(a.Payload, b.Payload) {
			t.Fatalf("frame %d: the memoized decode differs from a fresh one", f)
		}
		decoded++
	}
	if decoded < 6 {
		t.Fatalf("only %d of 12 frames decoded; the comparison is empty", decoded)
	}
}
