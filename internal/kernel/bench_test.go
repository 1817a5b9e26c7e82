package kernel

import (
	"fmt"
	"testing"
)

func BenchmarkQuery(b *testing.B) {
	c := newTestComp("a", "hi")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := Query[greeter](c); !ok {
			b.Fatal("lost interface")
		}
	}
}

func BenchmarkCFInsertRemove(b *testing.B) {
	cf := NewCF("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := newTestComp(fmt.Sprintf("c%d", i), "")
		if err := cf.Insert(c); err != nil {
			b.Fatal(err)
		}
		if err := cf.Remove(c.Name()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCFReplace(b *testing.B) {
	cf := NewCF("bench")
	cf.Insert(newTestComp("user", ""))
	cf.Insert(newTestComp("handler-0", "v"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := newTestComp(fmt.Sprintf("handler-%d", i+1), "v")
		if err := cf.Replace(fmt.Sprintf("handler-%d", i), next); err != nil {
			b.Fatal(err)
		}
	}
}
