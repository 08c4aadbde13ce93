package reader

import "backfi/internal/tag"

// mustNew builds a Reader from a config the test knows is valid (New
// returns errors since the panic-free API refactor).
func mustNew(cfg Config) *Reader {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// decodeTag runs Decode on the single tag tcfg and returns its layer,
// as core's single-tag path does.
func decodeTag(rd *Reader, ss []Stream, x, xTap []complex128, ys [][]complex128, packetStart, packetLen int, tcfg tag.Config) (*Result, error) {
	d, err := rd.Decode(ss, NewExcitation(x), xTap, ys, packetStart, packetLen, []tag.Config{tcfg})
	if err != nil {
		return nil, err
	}
	return d.Tag(0)
}
