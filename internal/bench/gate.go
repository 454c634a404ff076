package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
)

// The JSON artifacts (BENCH, WORKLOAD, DECOMP, SCALE, PERF) share one
// writer, one strict loader and one zero-drift gate. Every field of an
// artifact is a pure function of its configuration and seed, and so is
// gated, except the fields tagged gate:"host": those record the machine
// and the moment that produced the file, and are never compared.

// Write emits an artifact as indented JSON followed by a newline.
func Write(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// Decode reads one artifact from b into v, a pointer to the artifact's
// type. It refuses unknown fields and trailing data, so a file decodes
// only into the type that wrote it: that is how a baseline's kind is read.
func Decode(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the artifact")
	}
	return nil
}

// Gate decodes baseline and out, the bytes a run wrote for its artifact
// v, into v's type and compares them. It reports false, having compared
// nothing, when baseline does not decode into that type: the baseline is
// an artifact of another kind.
func Gate(baseline, out []byte, v any) (bool, error) {
	t := reflect.TypeOf(v).Elem()
	want, got := reflect.New(t).Interface(), reflect.New(t).Interface()
	if Decode(baseline, want) != nil {
		return false, nil
	}
	if err := Decode(out, got); err != nil {
		return true, err
	}
	return true, Compare(want, got)
}

// Compare is the regression gate for two artifacts of one type. Every
// field not tagged gate:"host" must be equal, with zero tolerance: the
// simulation is deterministic, so any difference is a change in
// behaviour, not noise. A differing schema_version, or version of a
// section, refuses the comparison. The error lists every drifted field by
// its JSON path with both values.
func Compare(baseline, current any) error {
	b, c := reflect.ValueOf(baseline), reflect.ValueOf(current)
	if b.Type() != c.Type() {
		return fmt.Errorf("cannot compare a %v baseline with a %v", b.Type(), c.Type())
	}
	var g gate
	g.walk("", b, c)
	if g.refused != nil {
		return g.refused
	}
	if len(g.drifts) > 0 {
		return fmt.Errorf("drift (%d):\n  %s", len(g.drifts), strings.Join(g.drifts, "\n  "))
	}
	return nil
}

// gate collects what one Compare finds.
type gate struct {
	drifts  []string
	refused error
}

func (g *gate) drift(path string, format string, args ...any) {
	g.drifts = append(g.drifts, path+": "+fmt.Sprintf(format, args...))
}

// walk compares b and c, the baseline's and the run's values at path.
func (g *gate) walk(path string, b, c reflect.Value) {
	switch b.Kind() {
	case reflect.Pointer:
		switch {
		case b.IsNil() && c.IsNil():
		case b.IsNil():
			g.drift(path, "the run has it, the baseline does not")
		case c.IsNil():
			g.drift(path, "missing from the run")
		default:
			g.walk(path, b.Elem(), c.Elem())
		}
	case reflect.Struct:
		t := b.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || f.Tag.Get("gate") == "host" {
				continue
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if path != "" {
				name = path + "." + name
			}
			bf, cf := b.Field(i), c.Field(i)
			if (f.Name == "SchemaVersion" || f.Name == "Version") && !bf.Equal(cf) {
				g.refused = fmt.Errorf("%s: baseline v%v, run v%v: regenerate the baseline", name, bf, cf)
				return
			}
			g.walk(name, bf, cf)
		}
	case reflect.Slice:
		if b.Len() != c.Len() {
			g.drift(path, "%d elements, baseline %d", c.Len(), b.Len())
			return
		}
		for i := 0; i < b.Len(); i++ {
			g.walk(fmt.Sprintf("%s[%d]", path, i), b.Index(i), c.Index(i))
		}
	case reflect.String:
		if b.String() != c.String() {
			g.drift(path, "%q, baseline %q", c.String(), b.String())
		}
	default:
		if !b.Equal(c) {
			g.drift(path, "%v, baseline %v", c, b)
		}
	}
}
