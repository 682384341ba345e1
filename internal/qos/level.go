package qos

import (
	"sort"
	"strings"
)

// Level is a concrete quality setting: one value per attribute. It is the
// payload of a multi-attribute proposal (Section 5) and the argument of the
// evaluation function (Section 6).
type Level map[AttrKey]Value

// Equal reports whether two levels assign identical values to identical
// attribute sets.
func (l Level) Equal(o Level) bool {
	if len(l) != len(o) {
		return false
	}
	for k, v := range l {
		ov, ok := o[k]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// String renders the level deterministically (sorted by key) for logs and
// golden tests.
func (l Level) String() string {
	keys := make([]AttrKey, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Dim != keys[j].Dim {
			return keys[i].Dim < keys[j].Dim
		}
		return keys[i].Attr < keys[j].Attr
	})
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(k.String())
		b.WriteByte('=')
		b.WriteString(l[k].String())
	}
	b.WriteByte('}')
	return b.String()
}
