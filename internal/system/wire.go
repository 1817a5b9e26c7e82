package system

import (
	"errors"

	"manetkit/internal/emunet"
	"manetkit/internal/packetbb"
)

// Wire-class predicates for raw frame payloads, used by measurement taps
// (the evaluation campaign's overhead accounting) that must classify
// traffic without decoding it. The discriminator byte is the first payload
// byte: wireControl frames carry PacketBB, wireData frames carry the data
// header (see netlink.go).

// IsControlFrame reports whether payload is a routing-control frame
// (PacketBB under the control discriminator).
func IsControlFrame(payload []byte) bool {
	return len(payload) > 0 && payload[0] == wireControl
}

// IsDataFrame reports whether payload is an application data frame.
func IsDataFrame(payload []byte) bool {
	return len(payload) > 0 && payload[0] == wireData
}

// ControlBody returns the PacketBB bytes of a control frame (the payload
// with the wire discriminator stripped) and whether payload was one.
func ControlBody(payload []byte) ([]byte, bool) {
	if !IsControlFrame(payload) {
		return nil, false
	}
	return payload[1:], true
}

var errNotControl = errors.New("system: not a control frame")

// DecodeControl returns the PacketBB packet a control frame carries. A
// transmission is decoded once (emunet.Frame.Decoded): every node that
// heard the frame, and every tap that asks here, gets the same packet and
// the same error. The packet is therefore read-only: a forward that changes
// only a message's hop fields relays it (event.Relay), sharing its body, and
// one that rewrites anything else works on a Clone.
//
// The packet is lent like the bytes it aliases: it lives in a
// packetbb.Room the medium poisons and reuses for a later decode once the
// transmission's last delivery has returned, unless the frame was kept
// (emunet.Frame.Keep) or a capture tap saw it. A receiver reads it until its
// call returns; whoever keeps a message clones it (Message.Clone).
func DecodeControl(f emunet.Frame) (*packetbb.Packet, error) {
	if !IsControlFrame(f.Payload) {
		return nil, errNotControl
	}
	v, err := f.Decoded(decodeControlBody)
	if err != nil {
		return nil, err
	}
	return v.(*packetbb.Room).Packet(), nil
}

// decodeControlBody decodes a control frame's packet into room, a released
// decode the medium hands back, or into a new one.
func decodeControlBody(payload []byte, room any) (any, error) {
	r, _ := room.(*packetbb.Room)
	if r == nil {
		r = new(packetbb.Room)
	}
	if _, err := packetbb.DecodePacketInto(payload[1:], r); err != nil {
		return nil, err
	}
	return r, nil
}
