package serve

// The two halves of a query answer's wire format. An answer is one
// short head followed by one array of |V| integers, so both directions
// split it there: the head goes through encoding/json — the only part
// with strings to escape — and the array through a single pass that
// knows exactly one spelling of it.
//
// appendAnswer is the encoder every answer a daemon serves goes
// through: byte for byte what json.Encoder.Encode emits for the
// response struct, at a fraction of the cost.
//
// decodeAnswer is the strict reader a ShardClient verifies a shard's
// 200 query answer with. A routed answer is forwarded as the bytes the
// shard sent, so this is the only inspection those bytes get: it must
// accept nothing encoding/json would refuse or decode differently, and
// it accepts exactly the array spelling appendAnswer produces. The
// client runs it without an array to fill: every element is checked
// and none is kept, since the bytes, not a decoded array, are what the
// router serves. The router's stale cache decodes a kept body in full.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// answerHeadRoom bounds everything in a query answer that is not an
// array element: the scalars, the stats object and the algorithm name
// fit in it many times over. The graph name is the one unbounded part,
// so headRoom adds its worst-case JSON escaping (\u00XX, six bytes per
// byte).
const answerHeadRoom = 4 << 10

func headRoom(graph string) int { return answerHeadRoom + 6*len(graph) }

// maxDigits is the length of the widest decimal an array of elements
// up to elemMax (MaxUint32 or MaxUint64) can hold.
func maxDigits(elemMax uint64) int {
	if elemMax > math.MaxUint32 {
		return len("18446744073709551615")
	}
	return len("4294967295")
}

// answerCap is the longest 200 body a shard can send for a query on a
// graph of the given vertex count: the head room plus, per vertex, the
// widest element of the array's width and its comma.
func answerCap(graph string, vertices int, elemMax uint64) int64 {
	return int64(headRoom(graph)) + int64(vertices)*int64(maxDigits(elemMax)+1)
}

// appendAnswer appends to dst exactly what json.Encoder.Encode emits
// for v, a query answer whose last member is the array elems under
// key. head is v with that array emptied: encoding/json writes it, and
// the elements are spliced in as strconv.AppendUint decimals where the
// empty array was — or, when omitempty dropped the emptied member,
// reopen it after the member before. An empty array goes through
// encoding/json whole, as part of v.
func appendAnswer[T uint32 | uint64](dst []byte, v, head any, key string, elems []T) ([]byte, error) {
	if len(elems) == 0 {
		head = v // nothing to splice
	}
	h, err := json.Marshal(head)
	if err != nil {
		return dst, err
	}
	if len(elems) == 0 {
		return append(append(dst, h...), '\n'), nil
	}
	open := `,"` + key + `":[`
	if bytes.HasSuffix(h, []byte(open+"]}")) {
		dst = append(dst, h[:len(h)-len("]}")]...)
	} else {
		dst = append(append(dst, h[:len(h)-len("}")]...), open...)
	}
	start := len(dst)
	dst = strconv.AppendUint(dst, uint64(elems[0]), 10)
	for i, e := range elems[1:] {
		if i == 1024 {
			// Make room for the rest at once, at the bytes per element so
			// far plus an eighth: append's own growth of a large slice, a
			// quarter at a time, would allocate several times the body.
			need := (len(dst) - start) * (len(elems) - 1 - i) / (i + 1)
			dst = slices.Grow(dst, need+need/8)
		}
		dst = strconv.AppendUint(append(dst, ','), uint64(e), 10)
	}
	return append(dst, "]}\n"...), nil
}

// decodeAnswer verifies one 200 query body and decodes its head into
// v, whose trailing array field arr points at, and its array into arr.
// A nil arr verifies the array the same way and keeps none of it: v's
// array field is left as the head alone sets it, empty. The
// body is accepted only in the shape `{head…,"key":[e,e,…,e]}` +
// newline: the head — closed as if the array were empty — must satisfy
// encoding/json and be at most headMax bytes; the elements must be
// canonical decimals (no sign, fraction, exponent or leading zero)
// within T, separated by single commas; nothing may follow the newline.
// A body with no such array within headMax bytes is all head (a CC
// answer without labels) and goes through encoding/json whole, if it
// is that short — into v, whatever arr is.
//
// Whatever this accepts, json.Unmarshal accepts and decodes to the
// same value: the key is matched with its leading comma, so its
// opening quote is not inside a string; the closed head parsing as one
// object puts the key at the top level; and a canonical array in the
// place of an empty one changes no other member.
func decodeAnswer[T uint32 | uint64](raw []byte, key string, headMax int, v any, arr *[]T) error {
	open := []byte(`,"` + key + `":[`)
	window := raw
	if len(window) > headMax {
		window = window[:headMax]
	}
	at := bytes.Index(window, open)
	if at < 0 {
		if len(raw) > headMax {
			return fmt.Errorf("no %q array in the first %d bytes", key, headMax)
		}
		return json.Unmarshal(raw, v)
	}
	split := at + len(open)
	head := make([]byte, 0, split+2)
	head = append(append(head, raw[:split]...), ']', '}')
	if err := json.Unmarshal(head, v); err != nil {
		return err
	}
	elems := raw[split:]
	keep := arr != nil
	var out []T
	end := 0
	if len(elems) == 0 || elems[0] != ']' {
		if keep {
			out = make([]T, 0, bytes.Count(elems, []byte{','})+1)
		}
		var err error
		if out, end, err = parseUints(elems, out, keep); err != nil {
			return fmt.Errorf("%q array: %w", key, err)
		}
	}
	if string(elems[end:]) != "]}\n" {
		return fmt.Errorf("%q array: want \"]}\" and a newline to end the body at byte %d", key, split+end)
	}
	if len(out) > 0 {
		*arr = out
	}
	return nil
}

// parseUints checks the elements of a canonical array body, appending
// them to out when keep is set, and returns out with the index of the
// closing bracket.
func parseUints[T uint32 | uint64](p []byte, out []T, keep bool) ([]T, int, error) {
	max := uint64(^T(0))
	widest := maxDigits(max)
	i := 0
	for n := 0; ; n++ {
		start := i
		var v uint64
		for i < len(p) {
			d := p[i] - '0' // wraps above 9 for anything below '0'
			if d > 9 {
				break
			}
			v = v*10 + uint64(d) // may wrap from the 20th digit on: settled below
			i++
		}
		digits := i - start
		switch {
		case i == len(p):
			return nil, 0, fmt.Errorf("body ends inside element %d", n)
		case digits == 0:
			return nil, 0, fmt.Errorf("unexpected byte %q in element %d", p[i], n)
		case p[start] == '0' && digits > 1:
			return nil, 0, fmt.Errorf("leading zero in element %d", n)
		case digits == widest && max == math.MaxUint64:
			// The one length at which v can have wrapped and still be in range.
			var err error
			if v, err = strconv.ParseUint(string(p[start:i]), 10, 64); err != nil {
				return nil, 0, fmt.Errorf("element %d exceeds %d", n, max)
			}
		case digits > widest || v > max:
			return nil, 0, fmt.Errorf("element %d exceeds %d", n, max)
		}
		if keep {
			out = append(out, T(v))
		}
		switch p[i] {
		case ',':
			i++
		case ']':
			return out, i, nil
		default:
			return nil, 0, fmt.Errorf("unexpected byte %q after element %d", p[i], n)
		}
	}
}
