package mnet

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAddrString(t *testing.T) {
	tests := []struct {
		addr Addr
		want string
	}{
		{Addr{10, 0, 0, 1}, "10.0.0.1"},
		{Addr{}, "0.0.0.0"},
		{Broadcast, "255.255.255.255"},
		{Addr{192, 168, 1, 200}, "192.168.1.200"},
	}
	for _, tt := range tests {
		if got := tt.addr.String(); got != tt.want {
			t.Errorf("String(%v) = %q, want %q", [4]byte(tt.addr), got, tt.want)
		}
	}
}

func TestParseAddr(t *testing.T) {
	tests := []struct {
		in      string
		want    Addr
		wantErr bool
	}{
		{"10.0.0.1", Addr{10, 0, 0, 1}, false},
		{"255.255.255.255", Broadcast, false},
		{"0.0.0.0", Addr{}, false},
		{"1.2.3", Addr{}, true},
		{"1.2.3.4.5", Addr{}, true},
		{"256.0.0.1", Addr{}, true},
		{"-1.0.0.1", Addr{}, true},
		{"01.0.0.1", Addr{}, true}, // leading zero rejected
		{"a.b.c.d", Addr{}, true},
		{"", Addr{}, true},
	}
	for _, tt := range tests {
		got, err := ParseAddr(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseAddr(%q): want error, got %v", tt.in, got)
			} else if !errors.Is(err, ErrBadAddr) {
				t.Errorf("ParseAddr(%q): error %v is not ErrBadAddr", tt.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseAddr(%q): unexpected error %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseAddr(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseAddrRoundTrip(t *testing.T) {
	f := func(u uint32) bool {
		a := AddrFrom(u)
		back, err := ParseAddr(a.String())
		return err == nil && back == a && back.Uint32() == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMustParseAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseAddr on bad input did not panic")
		}
	}()
	MustParseAddr("not-an-addr")
}

func TestAddrPredicates(t *testing.T) {
	if !Broadcast.IsBroadcast() {
		t.Error("Broadcast.IsBroadcast() = false")
	}
	if (Addr{10, 0, 0, 1}).IsBroadcast() {
		t.Error("unicast address reported as broadcast")
	}
	if !(Addr{}).IsUnspecified() {
		t.Error("zero address not unspecified")
	}
	if Broadcast.IsUnspecified() {
		t.Error("broadcast reported unspecified")
	}
}

func TestAddrLess(t *testing.T) {
	a := Addr{10, 0, 0, 1}
	b := Addr{10, 0, 1, 0}
	if !a.Less(b) || b.Less(a) || a.Less(a) {
		t.Errorf("Less ordering broken for %v, %v", a, b)
	}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Errorf("Compare disagrees with Less for %v, %v", a, b)
	}
}

func TestHostPrefix(t *testing.T) {
	a := MustParseAddr("10.0.0.9")
	p := HostPrefix(a)
	if p.Bits != 32 || p.Addr != a {
		t.Errorf("HostPrefix(%v) = %v behaves wrongly", a, p)
	}
	if got, want := p.String(), "10.0.0.9/32"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
