package netsim

import "fmt"

// PacketKind classifies inbound packets by the protocol work they need.
type PacketKind int

const (
	// SYN is a connection request to a listening socket.
	SYN PacketKind = iota
	// Data carries an HTTP request (or request continuation) on an
	// established connection.
	Data
	// FIN tears an established connection down.
	FIN
)

// String names the packet kind.
func (k PacketKind) String() string {
	switch k {
	case SYN:
		return "SYN"
	case Data:
		return "DATA"
	case FIN:
		return "FIN"
	default:
		return fmt.Sprintf("PacketKind(%d)", int(k))
	}
}

// Packet is one inbound network packet as seen by the server's NIC.
// Outbound (response) traffic is modeled as send-side CPU cost plus a
// delivery callback, so it needs no packet descriptor.
type Packet struct {
	Kind PacketKind
	Src  Addr
	Dst  Addr
	// Size in bytes, for byte accounting.
	Size int
	// ConnID identifies the established connection for Data/FIN packets.
	ConnID uint64
	// Payload carries protocol-specific request data (e.g. an HTTP
	// request descriptor) opaque to the network layer.
	Payload any
	// Bogus marks a SYN that will never complete a handshake (a
	// SYN-flood packet, §5.7). The kernel cannot tell until it has paid
	// the processing cost; the flag only controls what happens after.
	Bogus bool
}

// Header is the fixed-size, pointer-free part of a packet: everything
// its one-line summary shows. A trace record keeps a Header by value, so
// it can render the packet long after the packet itself is gone without
// holding it live.
type Header struct {
	Kind   PacketKind
	Src    Addr
	Dst    Addr
	ConnID uint64
	Size   int
}

// Header returns a value copy of the packet's header fields.
func (p *Packet) Header() Header {
	return Header{Kind: p.Kind, Src: p.Src, Dst: p.Dst, ConnID: p.ConnID, Size: p.Size}
}

// String summarizes the packet header.
func (h Header) String() string {
	return fmt.Sprintf("%s %s->%s conn=%d %dB", h.Kind, h.Src, h.Dst, h.ConnID, h.Size)
}

// String summarizes the packet.
func (p *Packet) String() string { return p.Header().String() }
