package core

import (
	"container/list"
	"math"
	"slices"
	"sync"

	"backfi/internal/dsp"
	"backfi/internal/reader"
	"backfi/internal/rng"
	"backfi/internal/tag"
	"backfi/internal/wifi"
)

// Well-known addresses of the simulated cell.
var (
	apAddr     = wifi.MACAddr{0x02, 0x00, 0x00, 0xba, 0xcf, 0x01}
	clientAddr = wifi.MACAddr{0x02, 0x00, 0x00, 0xc1, 0x1e, 0x42}
)

// burstShape is everything an excitation burst depends on: the wake
// sequence, the PPDU train's size and bitrate, and the transmit power.
type burstShape struct {
	wakeID    int
	psduBytes int
	nppdu     int
	mbps      int
	txBits    uint64
}

// seed folds the shape into the MSDU byte stream's seed, FNV-1a style.
func (k burstShape) seed() int64 {
	h := uint64(1469598103934665603)
	for _, v := range [...]uint64{uint64(k.wakeID), uint64(k.psduBytes), uint64(k.nppdu),
		uint64(k.mbps), k.txBits} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xFF
			h *= 1099511628211
		}
	}
	return int64(h)
}

// buildExcitation assembles the AP's transmission for one exchange,
// following the paper's protocol (Sec. 4.1/Fig. 4): a CTS-to-SELF to
// silence the cell, the tag's 16 µs wake preamble, then back-to-back
// framed downlink MPDUs as the excitation. It returns the ideal
// baseband samples and the index where the excitation packet (= the
// tag's timing origin) begins.
//
// The result is a pure function of the burst shape: the MSDU bytes
// come from a stream seeded by the shape alone. The reader cancels and
// decodes against the excitation it sent, and the tag never reads its
// bytes, so which bytes fill the PPDUs changes nothing but the
// realization — and a seed-free template can be shared by every link
// that sends the same shape.
func buildExcitation(rate wifi.Rate, psduBytes int, txPowerW float64, tg *tag.Tag, nppdu int) ([]complex128, int, error) {
	amp := complex(math.Sqrt(txPowerW), 0)
	msduRNG := rng.New(shapeOf(tg, rate, psduBytes, txPowerW, nppdu).seed())

	// CTS-to-SELF at the 6 Mbps basic rate, NAV covering the exchange.
	basic, err := wifi.RateByMbps(6)
	if err != nil {
		return nil, 0, err
	}
	navUs := min(16+nppdu*int(wifi.AirtimeSeconds(psduBytes, rate)*1e6), 32767)
	cts, err := wifi.BuildCTSToSelf(apAddr, navUs)
	if err != nil {
		return nil, 0, err
	}
	ctsWave, err := wifi.Transmit(cts, basic, wifi.DefaultScramblerSeed)
	if err != nil {
		return nil, 0, err
	}

	wake := tag.WakeWaveform(tg.WakeSeq(), math.Sqrt(txPowerW))
	x := append(dsp.Scale(ctsWave, amp), wake...)
	packetStart := len(x)

	// Downlink MPDUs: psduBytes on the air, of which 28 bytes are MAC
	// header + FCS.
	msdu := make([]byte, max(psduBytes-28, 1))
	for i := 0; i < nppdu; i++ {
		msduRNG.Read(msdu)
		mpdu, err := wifi.BuildDataMPDU(wifi.MPDUHeader{
			Addr1: clientAddr, Addr2: apAddr, Addr3: apAddr, Seq: i & 0xFFF,
		}, msdu)
		if err != nil {
			return nil, 0, err
		}
		wave, err := wifi.Transmit(mpdu, rate, wifi.DefaultScramblerSeed)
		if err != nil {
			return nil, 0, err
		}
		x = append(x, dsp.Scale(wave, amp)...)
	}
	// Trim append's growth slack: the template may be retained for
	// the life of the process.
	return slices.Clone(x), packetStart, nil
}

func shapeOf(tg *tag.Tag, rate wifi.Rate, psduBytes int, txPowerW float64, nppdu int) burstShape {
	return burstShape{
		wakeID:    tg.WakeID(),
		psduBytes: psduBytes,
		nppdu:     nppdu,
		mbps:      rate.Mbps,
		txBits:    math.Float64bits(txPowerW),
	}
}

// maxPoolBytes bounds the template bytes one pool retains, each
// template's factor memo counted at its bound (reader.MemoBytes). Burst
// shapes follow the payload lengths clients send, so an unbounded pool
// would grow with every distinct length; 32 MiB holds about 145
// templates of the default 24 B frame at 2 m (182 KiB of samples and
// 40 KiB of memo each), far more shapes than a deployment cycles
// through. The least recently used templates go first, and a template
// larger than the bound is built for its frame and never retained.
const maxPoolBytes = 32 << 20

// buildTemplate is the pool's builder; tests swap it to observe and
// stall builds.
var buildTemplate = buildExcitation

// SlotPool memoizes excitation templates across every link that holds
// it (DESIGN.md §5g/§5i). A template is a pure function of its burst
// shape (buildExcitation), so links on different shards realize
// identical excitations no matter who builds first, and a hundred
// thousand sessions retain one template per shape instead of a hundred
// thousand private buffers. Templates are shared and never written;
// each carries its reader.Excitation memo, so the least-squares factors
// every frame against it shares live and die with it.
//
// A miss builds outside the pool's lock: lookups of other shapes
// proceed meanwhile, and concurrent misses on one shape wait for a
// single build.
type SlotPool struct {
	mu    sync.Mutex
	m     map[burstShape]*slotTemplate // retained and in-flight templates
	lru   list.List                    // retained templates, most recently used first
	bytes int                          // retained template bytes
	// keep bounds the templates retained (0 = bytes only); a link's
	// private pool keeps only its latest shape.
	keep     int
	maxBytes int
}

type slotTemplate struct {
	key         burstShape
	done        chan struct{} // closed once the build has set ex, packetStart, err
	ex          *reader.Excitation
	packetStart int
	err         error
	elem        *list.Element // nil until retained, and again once evicted
}

// size is the template's samples plus its memo's bound.
func (t *slotTemplate) size() int { return len(t.ex.Samples())*16 + reader.MemoBytes }

// NewSlotPool builds an empty shared pool. The seed argument has no
// effect — templates no longer depend on any seed — and is kept only
// so callers written against earlier builds still compile.
func NewSlotPool(seed int64) *SlotPool { return newSlotPool(0, maxPoolBytes) }

func newSlotPool(keep, maxBytes int) *SlotPool {
	return &SlotPool{m: make(map[burstShape]*slotTemplate), keep: keep, maxBytes: maxBytes}
}

// Size reports how many templates the pool retains.
func (p *SlotPool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}

// excitation returns the template for the given shape, building it on
// first use. Its samples are shared and MUST NOT be written; hit
// reports whether this call found the template built or in flight.
func (p *SlotPool) excitation(tg *tag.Tag, rate wifi.Rate, psduBytes int, txPowerW float64, nppdu int) (ex *reader.Excitation, packetStart int, hit bool, err error) {
	key := shapeOf(tg, rate, psduBytes, txPowerW, nppdu)
	p.mu.Lock()
	if t, ok := p.m[key]; ok {
		if t.elem != nil {
			p.lru.MoveToFront(t.elem)
		}
		p.mu.Unlock()
		<-t.done
		return t.ex, t.packetStart, true, t.err
	}
	t := &slotTemplate{key: key, done: make(chan struct{})}
	p.m[key] = t
	p.mu.Unlock()

	var x []complex128
	x, t.packetStart, t.err = buildTemplate(rate, psduBytes, txPowerW, tg, nppdu)
	t.ex = reader.NewExcitation(x)
	p.mu.Lock()
	if t.err != nil || !p.retain(t) {
		delete(p.m, key)
	}
	p.mu.Unlock()
	close(t.done)
	return t.ex, t.packetStart, false, t.err
}

// retain admits a freshly built template, evicting least recently used
// ones to stay within keep and maxBytes. It reports false, retaining
// nothing, for a template larger than maxBytes. Caller holds mu.
func (p *SlotPool) retain(t *slotTemplate) bool {
	if t.size() > p.maxBytes {
		return false
	}
	for p.lru.Len() > 0 && (p.bytes+t.size() > p.maxBytes || p.keep > 0 && p.lru.Len() >= p.keep) {
		old := p.lru.Remove(p.lru.Back()).(*slotTemplate)
		old.elem = nil
		p.bytes -= old.size()
		delete(p.m, old.key)
	}
	t.elem = p.lru.PushFront(t)
	p.bytes += t.size()
	return true
}
