package fec

import "hash/crc32"

// Scrambler is the 802.11 frame-synchronous scrambler with generator
// polynomial S(x) = x^7 + x^4 + 1. The same structure descrambles, so
// one type serves both directions.
type Scrambler struct {
	state byte // 7-bit LFSR state, must be non-zero
}

// NewScrambler returns a scrambler seeded with the given non-zero 7-bit
// state (802.11 pseudo-random seed; the all-ones seed 0x7F is the
// conventional default).
func NewScrambler(seed byte) *Scrambler {
	if seed&0x7F == 0 {
		panic("fec: scrambler seed must be non-zero")
	}
	return &Scrambler{state: seed & 0x7F}
}

// Next returns the next scrambling bit and advances the LFSR.
func (s *Scrambler) Next() byte {
	// Feedback = x^7 XOR x^4 (bits 6 and 3 of the register).
	fb := ((s.state >> 6) ^ (s.state >> 3)) & 1
	s.state = ((s.state << 1) | fb) & 0x7F
	return fb
}

// Scramble XORs the keystream into bits, returning a new slice. Calling
// it again on the output with a scrambler in the same starting state
// recovers the input.
func (s *Scrambler) Scramble(bits []byte) []byte {
	out := make([]byte, len(bits))
	for i, b := range bits {
		out[i] = b ^ s.Next()
	}
	return out
}

// FCS32 computes the 802.11 frame check sequence (IEEE CRC-32) of data.
func FCS32(data []byte) uint32 {
	return crc32.ChecksumIEEE(data)
}

// CRC8 computes an 8-bit CRC with polynomial x^8+x^2+x+1 (0x07), used
// by the tag packet header where a 4-byte FCS would be disproportionate.
func CRC8(data []byte) byte { return CRC8Update(0, data) }

// CRC8Update continues a CRC-8 over data from a running value crc, so a
// checksum over several segments equals CRC8 of their concatenation.
func CRC8Update(crc byte, data []byte) byte {
	for _, d := range data {
		crc ^= d
		for i := 0; i < 8; i++ {
			if crc&0x80 != 0 {
				crc = (crc << 1) ^ 0x07
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// BytesToBits unpacks bytes LSB-first into a bit slice (802.11 bit
// ordering).
func BytesToBits(data []byte) []byte {
	bits := make([]byte, 0, len(data)*8)
	for _, b := range data {
		for i := 0; i < 8; i++ {
			bits = append(bits, (b>>uint(i))&1)
		}
	}
	return bits
}

// BitsToBytes packs bits LSB-first into bytes; len(bits) must be a
// multiple of 8.
func BitsToBytes(bits []byte) []byte {
	if len(bits)%8 != 0 {
		panic("fec: bit count not a multiple of 8")
	}
	out := make([]byte, len(bits)/8)
	for i, b := range bits {
		if b&1 != 0 {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

// CRC16CCITT computes the CRC-16/CCITT-FALSE (poly 0x1021, init
// 0xFFFF) used by the 802.11b PLCP header.
func CRC16CCITT(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, d := range data {
		crc ^= uint16(d) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// SelfSyncScramble applies the 802.11b self-synchronizing scrambler
// (G(z) = z^−7 + z^−4 + 1): each output bit is the input XOR taps of
// the *output* history, so the descrambler aligns itself from the
// received stream after 7 bits regardless of where reception started.
func SelfSyncScramble(bits []byte, seed byte) []byte {
	state := seed & 0x7F
	out := make([]byte, len(bits))
	for i, b := range bits {
		o := b ^ (state >> 3 & 1) ^ (state >> 6 & 1)
		out[i] = o
		state = (state<<1 | o) & 0x7F
	}
	return out
}

// SelfSyncDescramble inverts SelfSyncScramble using the received bits
// as the shift-register history; any seed converges within 7 bits.
func SelfSyncDescramble(bits []byte, seed byte) []byte {
	state := seed & 0x7F
	out := make([]byte, len(bits))
	for i, b := range bits {
		out[i] = b ^ (state >> 3 & 1) ^ (state >> 6 & 1)
		state = (state<<1 | b) & 0x7F
	}
	return out
}
