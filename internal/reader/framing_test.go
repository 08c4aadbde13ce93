package reader

import (
	"slices"
	"testing"

	"backfi/internal/fec"
	"backfi/internal/tag"
)

// headerEsts returns the noiseless symbol estimates of the bounded
// header pass Decode runs: a frame whose 16-bit length header
// reads n, encoded and mapped exactly as the tag does.
func headerEsts(n int, tcfg tag.Config) []complex128 {
	bits := make([]byte, 16+headerGuardSteps+fec.TailBits)
	for i := 0; i < 16; i++ {
		bits[i] = byte(n>>uint(i)) & 1
	}
	coded := fec.Puncture(fec.ConvEncode(bits), tcfg.Coding)
	return tcfg.Mod.MapBits(coded[:headerSymbols(tcfg)*tcfg.Mod.BitsPerSymbol()])
}

func TestFrameExtentReadsHeader(t *testing.T) {
	for _, tcfg := range []tag.Config{
		qpskCfg(),
		{Mod: tag.PSK16, Coding: fec.Rate23, SymbolRateHz: 2.5e6, PreambleChips: 32, ID: 2},
		{Mod: tag.BPSK, Coding: fec.Rate34, SymbolRateHz: 500e3, PreambleChips: 32, ID: 2},
	} {
		var d frameDecoder
		for _, n := range []int{0, 24, 1500, 0xFFFF} {
			used, infoBits, ok := d.frameExtent(headerEsts(n, tcfg), tcfg)
			if !ok {
				t.Fatalf("%v: header n=%d unreadable", tcfg, n)
			}
			if want := tag.SymbolsForPayload(n, tcfg.Coding, tcfg.Mod); used != want {
				t.Fatalf("%v: n=%d sized to %d symbols, want %d", tcfg, n, used, want)
			}
			if infoBits != tag.FrameInfoBits(n) {
				t.Fatalf("%v: n=%d: %d info bits", tcfg, n, infoBits)
			}
		}
	}
}

// TestFrameExtentZeroAlloc pins that sizing a frame from its header —
// demap, depuncture, bounded Viterbi pass, closed-form length — runs in
// the decoder's reused scratch.
func TestFrameExtentZeroAlloc(t *testing.T) {
	tcfg := qpskCfg()
	ests := headerEsts(0xFFFF, tcfg)
	var d frameDecoder
	d.frameExtent(ests, tcfg)
	if n := testing.AllocsPerRun(50, func() { d.frameExtent(ests, tcfg) }); n != 0 {
		t.Fatalf("frameExtent: %v allocs per run, want 0", n)
	}
}

// TestPreambleCacheUnchangedByDecode runs every decoder that reads the
// tag's shared preamble and requires the cached slice to come back
// identical: callers may only read it.
func TestPreambleCacheUnchangedByDecode(t *testing.T) {
	tcfg := qpskCfg()
	pn := tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips)
	want := slices.Clone(pn)
	sc := buildScene(t, 61, tcfg, 40, -65)
	rd := mustNew(DefaultConfig())
	if _, err := rd.decodeFull(sc.x, sc.x, sc.y, sc.packetStart, sc.packetLen, tcfg); err != nil {
		t.Fatal(err)
	}
	if _, err := mustStream(t, rd).Decode(sc.x, sc.x, sc.y, sc.packetStart, sc.packetLen, tcfg); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeTag(rd, make([]Stream, 2), sc.x, sc.x, [][]complex128{sc.y, sc.y}, sc.packetStart, sc.packetLen, tcfg); err != nil {
		t.Fatal(err)
	}
	other := tcfg
	other.ID++
	if _, err := rd.Decode(make([]Stream, 1), NewExcitation(sc.x), sc.x, [][]complex128{sc.y}, sc.packetStart, sc.packetLen, []tag.Config{tcfg, other}); err != nil {
		t.Fatal(err)
	}
	got := tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips)
	if &got[0] != &pn[0] {
		t.Fatal("preamble not served from the cache")
	}
	if !slices.Equal(got, want) {
		t.Fatal("a decoder modified the shared preamble")
	}
}

// BenchmarkFrameExtentCorruptHeader sizes a frame whose length header
// reads 0xFFFF, as a corrupted header can: the sizing must not scale
// with the claimed length.
func BenchmarkFrameExtentCorruptHeader(b *testing.B) {
	tcfg := qpskCfg()
	ests := headerEsts(0xFFFF, tcfg)
	var d frameDecoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := d.frameExtent(ests, tcfg); !ok {
			b.Fatal("header unreadable")
		}
	}
}
