package kernel

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// fuzzNames is the plug-in alphabet FuzzCF draws from: at most one
// "control-*" may be plugged in, and at least one "req-*" must be.
var fuzzNames = []string{"a", "b", "control-1", "control-2", "req-1", "req-2"}

// cfModel is the reference the fuzzer checks a CF against: a set of names.
type cfModel map[string]bool

// legal reports whether the set satisfies FuzzCF's two rules.
func (m cfModel) legal() bool {
	control, req := 0, 0
	for n := range m {
		if strings.HasPrefix(n, "control") {
			control++
		}
		if strings.HasPrefix(n, "req") {
			req++
		}
	}
	return control <= 1 && req >= 1
}

func (m cfModel) names() []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

func (m cfModel) insert(n string) error {
	if m[n] {
		return ErrDuplicate
	}
	m[n] = true
	return nil
}

func (m cfModel) remove(n string) error {
	if !m[n] {
		return ErrNoComponent
	}
	delete(m, n)
	return nil
}

func (m cfModel) replace(n, r string) error {
	if !m[n] {
		return ErrNoComponent
	}
	if r != n && m[r] {
		return ErrDuplicate
	}
	delete(m, n)
	m[r] = true
	return nil
}

// FuzzCF drives random Insert/Remove/Replace/Reconfigure sequences against
// a CF carrying a singleton rule and a required rule. An operation the model
// accepts must leave the CF's plug-ins equal to the model's set; one it
// rejects must fail with the model's error and leave Arch unchanged.
//
// Each operation is an opcode byte followed by its operands: Insert and
// Remove take a name byte, Replace takes two, and Reconfigure takes a count
// byte and then one byte per transactional step (low bit: insert or remove,
// the rest: the name).
func FuzzCF(f *testing.F) {
	// Replace("a", "control-2") beside control-1: the singleton vetoes it.
	f.Add([]byte{0, 2, 0, 0, 2, 0, 3})
	// A transaction removing the only required plug-in.
	f.Add([]byte{3, 0, 1 | 4<<1})
	// Replace("a", "b") while b is plugged in: the name collides.
	f.Add([]byte{0, 0, 0, 1, 2, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		cf := NewCF("fuzz")
		if err := cf.Insert(newTestComp("req-1", "")); err != nil {
			t.Fatal(err)
		}
		for _, r := range []IntegrityRule{
			RuleSingleton("control", func(c string) bool { return strings.HasPrefix(c, "control") }),
			RuleRequired("req", func(c string) bool { return strings.HasPrefix(c, "req") }),
		} {
			if err := cf.AddRule(r); err != nil {
				t.Fatal(err)
			}
		}
		model := cfModel{"req-1": true}
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		name := func(b byte) string { return fuzzNames[int(b)%len(fuzzNames)] }
		for step := 0; ; step++ {
			code, ok := next()
			if !ok {
				return
			}
			x, ok := next()
			if !ok {
				return
			}
			tentative := maps.Clone(model)
			var op string
			var got, want error
			switch code % 4 {
			case 0:
				op = fmt.Sprintf("Insert(%s)", name(x))
				want = tentative.insert(name(x))
				got = cf.Insert(newTestComp(name(x), ""))
			case 1:
				op = fmt.Sprintf("Remove(%s)", name(x))
				want = tentative.remove(name(x))
				got = cf.Remove(name(x))
			case 2:
				y, ok := next()
				if !ok {
					return
				}
				op = fmt.Sprintf("Replace(%s, %s)", name(x), name(y))
				want = tentative.replace(name(x), name(y))
				got = cf.Replace(name(x), newTestComp(name(y), ""))
			case 3:
				var steps []byte
				for range int(x)%3 + 1 {
					s, ok := next()
					if !ok {
						return
					}
					steps = append(steps, s)
				}
				op = fmt.Sprintf("Reconfigure(%v)", steps)
				for _, s := range steps {
					if s&1 == 0 {
						want = tentative.insert(name(s >> 1))
					} else {
						want = tentative.remove(name(s >> 1))
					}
					if want != nil {
						break
					}
				}
				got = cf.Reconfigure(func(tx *Tx) error {
					for _, s := range steps {
						var err error
						if s&1 == 0 {
							err = tx.Insert(newTestComp(name(s>>1), ""))
						} else {
							err = tx.Remove(name(s >> 1))
						}
						if err != nil {
							return err
						}
					}
					return nil
				})
			}
			if want == nil && !tentative.legal() {
				want = ErrIntegrity
			}
			if (want == nil) != (got == nil) || (want != nil && !errors.Is(got, want)) {
				t.Fatalf("step %d %s = %v, model says %v", step, op, got, want)
			}
			if want == nil {
				model = tentative
			}
			if arch := cf.Arch().Components; !slices.Equal(arch, model.names()) {
				t.Fatalf("step %d %s (err %v) left %v, model %v", step, op, got, arch, model.names())
			}
		}
	})
}
