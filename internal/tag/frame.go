package tag

import (
	"encoding/binary"
	"fmt"

	"backfi/internal/fec"
)

// Frame framing overhead: 2-byte little-endian payload length plus a
// 1-byte CRC-8 trailer.
const (
	frameHeaderBytes  = 2
	frameTrailerBytes = 1
	// FrameOverheadBits is the framing cost in information bits.
	FrameOverheadBits = 8 * (frameHeaderBytes + frameTrailerBytes)
)

// BuildFrame wraps a payload into the tag's uplink frame:
// [len:2][payload][crc8 over len+payload].
func BuildFrame(payload []byte) []byte {
	out := make([]byte, frameHeaderBytes+len(payload)+frameTrailerBytes)
	binary.LittleEndian.PutUint16(out, uint16(len(payload)))
	copy(out[frameHeaderBytes:], payload)
	out[len(out)-1] = fec.CRC8(out[:len(out)-1])
	return out
}

// ParseFrame validates and unwraps a frame, returning the payload.
func ParseFrame(frame []byte) ([]byte, error) {
	if len(frame) < frameHeaderBytes+frameTrailerBytes {
		return nil, fmt.Errorf("tag: frame too short (%d bytes)", len(frame))
	}
	n := int(binary.LittleEndian.Uint16(frame))
	want := frameHeaderBytes + n + frameTrailerBytes
	if len(frame) < want {
		return nil, fmt.Errorf("tag: frame claims %d payload bytes but has %d total", n, len(frame))
	}
	body := frame[:want-1]
	if fec.CRC8(body) != frame[want-1] {
		return nil, fmt.Errorf("tag: frame CRC mismatch")
	}
	return frame[frameHeaderBytes : frameHeaderBytes+n], nil
}

// EncodeFrameBits builds the coded symbol bit stream for a payload:
// frame bytes → bits → terminated convolutional encoding → puncturing,
// padded to a whole number of PSK symbols.
func EncodeFrameBits(payload []byte, coding fec.CodeRate, mod Modulation) []byte {
	return EncodeFrameBitsInto(nil, payload, coding, mod)
}

// EncodeFrameBitsInto is EncodeFrameBits writing into dst's storage,
// which it grows only when its capacity is short. It streams the frame
// through the encoder instead of building the frame bytes and bits.
func EncodeFrameBitsInto(dst, payload []byte, coding fec.CodeRate, mod Modulation) []byte {
	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(payload)))
	trailer := [frameTrailerBytes]byte{fec.CRC8Update(fec.CRC8(hdr[:]), payload)}
	k := mod.BitsPerSymbol()
	if n := SymbolsForPayload(len(payload), coding, mod) * k; cap(dst) < n {
		dst = make([]byte, 0, n)
	}
	var enc fec.PuncturedEncoder
	enc.Reset(dst, coding)
	enc.Write(hdr[:])
	enc.Write(payload)
	enc.Write(trailer[:])
	coded := enc.Terminate()
	for len(coded)%k != 0 {
		coded = append(coded, 0)
	}
	return coded
}

// DecodeFrameBits inverts EncodeFrameBits from soft values: depuncture,
// Viterbi, deframe, decoding in v's working memory. nInfoBits is the
// frame bit count (a multiple of 8). The returned payload is the
// caller's; it never aliases v.
func DecodeFrameBits(v *fec.Viterbi, soft []float64, coding fec.CodeRate, nInfoBits int) ([]byte, error) {
	// Trim pad soft bits so the punctured length matches.
	steps := nInfoBits + fec.TailBits
	needed := fec.PuncturedLength(2*steps, coding)
	if len(soft) < needed {
		return nil, fmt.Errorf("tag: %d soft bits, need %d", len(soft), needed)
	}
	bits, err := v.DecodePunctured(soft[:needed], coding, nInfoBits, true)
	if err != nil {
		return nil, err
	}
	return ParseFrame(fec.BitsToBytes(bits))
}

// FrameInfoBits returns the information bit count (including framing)
// for a payload of n bytes.
func FrameInfoBits(n int) int {
	return 8*n + FrameOverheadBits
}

// SymbolsForPayload returns how many PSK symbols a payload of n bytes
// occupies at the given coding and modulation.
func SymbolsForPayload(n int, coding fec.CodeRate, mod Modulation) int {
	steps := FrameInfoBits(n) + fec.TailBits
	coded := fec.PuncturedLength(2*steps, coding)
	k := mod.BitsPerSymbol()
	return (coded + k - 1) / k
}

// MaxPayloadBytes returns the largest payload that fits in nSymbols
// PSK symbols, or a negative value if even an empty frame doesn't fit.
func MaxPayloadBytes(nSymbols int, coding fec.CodeRate, mod Modulation) int {
	// Invert SymbolsForPayload: binary search is overkill; step down
	// from the closed-form estimate.
	codedBits := nSymbols * mod.BitsPerSymbol()
	infoEst := int(float64(codedBits)*coding.Fraction()) - fec.TailBits
	n := (infoEst - FrameOverheadBits) / 8
	for n >= 0 && SymbolsForPayload(n, coding, mod) > nSymbols {
		n--
	}
	return n
}
