package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"rambda/internal/kvs"
)

// Pairs are 64 B: an 18 B key and a 46 B value.
const (
	keyPrefix  = "user"
	keyDigits  = 14
	keyBytes   = len(keyPrefix) + keyDigits
	valueBytes = 46
)

// appendKey appends key i: "user" and i as 14 zero-padded digits, so
// byte order is index order and a scan's expected keys are a run of
// consecutive indices.
func appendKey(dst []byte, i int) []byte {
	dst = append(dst, keyPrefix...)
	var digits [keyDigits]byte
	for p := keyDigits - 1; p >= 0; p-- {
		digits[p] = byte('0' + i%10)
		i /= 10
	}
	return append(dst, digits[:]...)
}

// parseKey inverts appendKey.
func parseKey(k []byte) (int, error) {
	if len(k) != keyBytes || !bytes.HasPrefix(k, []byte(keyPrefix)) {
		return 0, fmt.Errorf("malformed key %q", k)
	}
	n := 0
	for _, c := range k[len(keyPrefix):] {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("malformed key %q", k)
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

// appendValue appends the value every write of key i at version v
// stores: the index in the first 8 bytes, the version in the next 8,
// and an index-derived fill, so a read proves which key and which write
// it returned.
func appendValue(dst []byte, i int, v uint64) []byte {
	var b [valueBytes]byte
	binary.LittleEndian.PutUint64(b[0:8], uint64(i))
	binary.LittleEndian.PutUint64(b[8:16], v)
	for j := 16; j < valueBytes; j++ {
		b[j] = byte(i*31 + j)
	}
	return append(dst, b[:]...)
}

// model is the expected store contents: keys 0..len(versions)-1 exist
// and key i holds appendValue(i, versions[i]). The simulation applies
// requests functionally in callback order, so the model stays exact.
type model struct {
	versions []uint64
	want     []byte // expected-value scratch
	keys     []int  // parsed scan keys scratch
}

func newModel(keys int) *model { return &model{versions: make([]uint64, keys)} }

func (m *model) live() int { return len(m.versions) }

func (m *model) checkValue(i int, got []byte) error {
	m.want = appendValue(m.want[:0], i, m.versions[i])
	if !bytes.Equal(got, m.want) {
		return fmt.Errorf("key %d: wrong value %x, want %x", i, got, m.want)
	}
	return nil
}

// checkGet validates a GET of key i.
func (m *model) checkGet(resp kvs.Response, i int) error {
	if resp.Status != kvs.StatusOK {
		return fmt.Errorf("get key %d: status %d", i, resp.Status)
	}
	return m.checkValue(i, resp.Val)
}

// checkScan validates a scan of up to limit pairs from key start: the
// pairs must be the live keys start, start±1, ... in order (descending
// when reverse), no more than limit of them and none missing, each with
// its current value.
func (m *model) checkScan(buf []byte, pairs []kvs.ScanPair, start, limit int, reverse bool) error {
	if len(pairs) > limit {
		return fmt.Errorf("scan from %d: %d pairs over limit %d", start, len(pairs), limit)
	}
	step, want := 1, min(limit, m.live()-start)
	if reverse {
		step, want = -1, min(limit, start+1)
	}
	m.keys = m.keys[:0]
	for n, p := range pairs {
		i, err := parseKey(p.Key(buf))
		if err != nil {
			return fmt.Errorf("scan from %d pair %d: %v", start, n, err)
		}
		if n > 0 && (i-m.keys[n-1])*step <= 0 {
			return fmt.Errorf("scan from %d pair %d: key %d out of order after %d", start, n, i, m.keys[n-1])
		}
		m.keys = append(m.keys, i)
	}
	for n, i := range m.keys {
		if exp := start + n*step; i != exp {
			return fmt.Errorf("scan from %d pair %d: key %d, want %d", start, n, i, exp)
		}
		if err := m.checkValue(i, pairs[n].Val(buf)); err != nil {
			return fmt.Errorf("scan from %d pair %d: %v", start, n, err)
		}
	}
	if len(pairs) != want {
		return fmt.Errorf("scan from %d: %d pairs, want %d", start, len(pairs), want)
	}
	return nil
}
