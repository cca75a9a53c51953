// Package cacheline checks struct layouts against the coherence
// granule. The paper's result is that cross-socket cache-line traffic
// decides HTM performance, so a word that many threads write must not
// share a line with anything another thread reads; the compiler warns
// about none of this, so each package that pads a struct for it tests
// the padding with Check.
package cacheline

import (
	"fmt"
	"reflect"
)

// Size is the cache-line size of every x86 machine the experiments
// model.
const Size = 64

// Check returns how typ's layout breaks the rules for a struct whose
// hot fields are written concurrently: each hot field starts a line and
// shares none of its lines with another named field (blank fields are
// padding), and the size is a whole number of lines, so instances laid
// side by side do not share one either — exactly lines of them when
// lines > 0. Offsets and sizes are those unsafe.Offsetof and
// unsafe.Sizeof report on the running target.
func Check(typ reflect.Type, lines int, hot ...string) []string {
	var bad []string
	size := typ.Size()
	if size%Size != 0 || lines > 0 && size != uintptr(lines*Size) {
		want := "a multiple of 64"
		if lines > 0 {
			want = fmt.Sprint(lines * Size)
		}
		bad = append(bad, fmt.Sprintf("%s is %d bytes, want %s", typ.Name(), size, want))
	}
	for _, name := range hot {
		f, ok := typ.FieldByName(name)
		if !ok {
			bad = append(bad, fmt.Sprintf("%s has no field %s", typ.Name(), name))
			continue
		}
		if f.Offset%Size != 0 {
			bad = append(bad, fmt.Sprintf("%s: hot field %s starts at byte %d, inside a line", typ.Name(), name, f.Offset))
		}
		first, last := span(f)
		for i := 0; i < typ.NumField(); i++ {
			g := typ.Field(i)
			if g.Name == "_" || g.Name == name || g.Type.Size() == 0 {
				continue
			}
			if gf, gl := span(g); gf <= last && gl >= first {
				bad = append(bad, fmt.Sprintf("%s: hot field %s shares cache line %d with %s", typ.Name(), name, max(first, gf), g.Name))
			}
		}
	}
	return bad
}

// span returns the first and last line f occupies.
func span(f reflect.StructField) (first, last uintptr) {
	return f.Offset / Size, (f.Offset + max(f.Type.Size(), 1) - 1) / Size
}
