// Package reuse regenerates the paper's code-reuse analysis (Table 3 and
// Fig 7): it counts the lines of code of every component in this
// repository's OLSR and DYMO compositions and classifies them as reusable
// generic components or protocol-specific ones. The paper uses this as the
// (indirect) measure of how much MANETKit shortens protocol development and
// porting (§6.3).
package reuse

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Component is one row of the analysis: a named component, the source
// files that implement it, and which protocol compositions use it.
type Component struct {
	Name    string
	Files   []string // repo-relative Go files (tests excluded by CountLoC)
	Generic bool     // reusable across protocols vs protocol-specific
	OLSR    bool     // part of the OLSR composition
	DYMO    bool     // part of the DYMO composition
	AODV    bool     // part of the AODV composition (extension column)
	// OLSRFiles, when set, are the only Files the OLSR composition runs;
	// Fig 7 counts just those towards OLSR's reused code.
	OLSRFiles []string
}

// Manifest maps the paper's Table 3 component rows onto this repository's
// sources. The generic set mirrors the paper's: System CF elements, the
// NetLink packet filter, queue/threadpool/timer utilities, the PacketBB
// generator/parser, the routing-table template, the ManetControl CF
// machinery, the Neighbour Detection CF, the MPR calculator and state, and
// the configurator (CF/integrity machinery). OLSR's MPR CF senses links
// with the Neighbour Detection CF's core (link set, HELLO codec and sweep)
// rather than a copy, so OLSR reuses that row too, without the detector
// unit itself. The reactive discovery state
// and lifecycle — duplicate set, pending-discovery table, sequence counter,
// and the start, retry, give-up, completion, route refresh, link loss,
// sweep and stop around them — have no row in the paper; here DYMO and AODV
// (and ZRP) share them instead of each carrying a copy.
func Manifest() []Component {
	return []Component{
		{Name: "System CF (C/F/S)", Files: []string{"internal/system/system.go", "internal/system/battery.go"}, Generic: true, OLSR: true, DYMO: true, AODV: true},
		{Name: "Netlink (packet filter)", Files: []string{"internal/system/netlink.go"}, Generic: true, DYMO: true, AODV: true},
		{Name: "Queue", Files: []string{"internal/queue/queue.go"}, Generic: true, OLSR: true, DYMO: true, AODV: true},
		{Name: "Threadpool", Files: []string{"internal/pool/pool.go"}, Generic: true, OLSR: true, DYMO: true, AODV: true},
		{Name: "Timer", Files: []string{"internal/vclock/clock.go", "internal/vclock/periodic.go"}, Generic: true, OLSR: true, DYMO: true, AODV: true},
		{Name: "PacketGenerator", Files: []string{"internal/packetbb/encode.go"}, Generic: true, OLSR: true, DYMO: true, AODV: true},
		{Name: "PacketParser", Files: []string{"internal/packetbb/decode.go", "internal/packetbb/packetbb.go"}, Generic: true, OLSR: true, DYMO: true, AODV: true},
		{Name: "RouteTable", Files: []string{"internal/route/route.go", "internal/route/fib.go"}, Generic: true, OLSR: true, DYMO: true, AODV: true},
		{Name: "ManetControl CF", Files: []string{"internal/core/protocol.go", "internal/core/ticket.go", "internal/core/state.go"}, Generic: true, OLSR: true, DYMO: true, AODV: true},
		{Name: "NeighbourDetection CF", Files: []string{"internal/neighbor/detector.go", "internal/neighbor/table.go", "internal/neighbor/sensing.go"}, Generic: true, OLSR: true, DYMO: true, AODV: true,
			OLSRFiles: []string{"internal/neighbor/table.go", "internal/neighbor/sensing.go"}},
		{Name: "MPRCalculator", Files: []string{"internal/mpr/calculator.go"}, Generic: true, OLSR: true},
		{Name: "MPRState", Files: []string{"internal/mpr/mpr.go"}, Generic: true, OLSR: true},
		{Name: "Reactive discovery state", Files: []string{"internal/reactive/reactive.go", "internal/reactive/discovery.go"}, Generic: true, DYMO: true, AODV: true},
		{Name: "Configurator", Files: []string{"internal/kernel/cf.go"}, Generic: true, OLSR: true, DYMO: true, AODV: true},

		{Name: "OLSR protocol logic", Files: []string{"internal/olsr/olsr.go"}, OLSR: true},
		{Name: "OLSR state (topology set)", Files: []string{"internal/olsr/state.go"}, OLSR: true},
		{Name: "OLSR variants (fisheye, power)", Files: []string{"internal/olsr/variants.go"}, OLSR: true},
		{Name: "DYMO protocol logic", Files: []string{"internal/dymo/dymo.go"}, DYMO: true},
		{Name: "DYMO variants (multipath, gossip)", Files: []string{"internal/dymo/variants.go"}, DYMO: true},
		{Name: "AODV protocol logic", Files: []string{"internal/aodv/aodv.go"}, AODV: true},
	}
}

// CountLoC counts the non-blank, non-comment lines of the given Go file.
func CountLoC(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("reuse: %w", err)
	}
	defer f.Close()

	count := 0
	inBlock := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		// Peel leading comments (possibly several on one line) until code
		// or nothing remains.
		for {
			if line == "" {
				break
			}
			if inBlock {
				idx := strings.Index(line, "*/")
				if idx < 0 {
					line = ""
					break
				}
				inBlock = false
				line = strings.TrimSpace(line[idx+2:])
				continue
			}
			if strings.HasPrefix(line, "//") {
				line = ""
				break
			}
			if strings.HasPrefix(line, "/*") {
				inBlock = true
				line = line[2:]
				continue
			}
			break
		}
		if line != "" {
			count++
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reuse: %w", err)
	}
	return count, nil
}

// Row is one measured Table 3 entry.
type Row struct {
	Component Component
	LoC       int
}

// Report is the full analysis: the rows plus the Fig 7 aggregates.
type Report struct {
	Rows []Row

	GenericCountOLSR  int // reused generic components in the OLSR composition
	GenericCountDYMO  int
	GenericCountAODV  int
	SpecificCountOLSR int
	SpecificCountDYMO int
	SpecificCountAODV int

	ReusedLoCOLSR   int
	SpecificLoCOLSR int
	ReusedLoCDYMO   int
	SpecificLoCDYMO int
	ReusedLoCAODV   int
	SpecificLoCAODV int
}

// Analyze measures every manifest component under the repository root.
func Analyze(root string) (*Report, error) {
	r := &Report{}
	count := func(files []string) (int, error) {
		loc := 0
		for _, file := range files {
			n, err := CountLoC(filepath.Join(root, file))
			if err != nil {
				return 0, err
			}
			loc += n
		}
		return loc, nil
	}
	for _, comp := range Manifest() {
		loc, err := count(comp.Files)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, Row{Component: comp, LoC: loc})
		if comp.OLSR {
			olsrLoC := loc
			if comp.OLSRFiles != nil {
				if olsrLoC, err = count(comp.OLSRFiles); err != nil {
					return nil, err
				}
			}
			if comp.Generic {
				r.GenericCountOLSR++
				r.ReusedLoCOLSR += olsrLoC
			} else {
				r.SpecificCountOLSR++
				r.SpecificLoCOLSR += olsrLoC
			}
		}
		if comp.DYMO {
			if comp.Generic {
				r.GenericCountDYMO++
				r.ReusedLoCDYMO += loc
			} else {
				r.SpecificCountDYMO++
				r.SpecificLoCDYMO += loc
			}
		}
		if comp.AODV {
			if comp.Generic {
				r.GenericCountAODV++
				r.ReusedLoCAODV += loc
			} else {
				r.SpecificCountAODV++
				r.SpecificLoCAODV += loc
			}
		}
	}
	return r, nil
}

// ReusedFractionAODV returns the reusable proportion for the AODV
// composition (extension beyond the paper's two protocols).
func (r *Report) ReusedFractionAODV() float64 {
	total := r.ReusedLoCAODV + r.SpecificLoCAODV
	if total == 0 {
		return 0
	}
	return float64(r.ReusedLoCAODV) / float64(total)
}

// ReusedFractionOLSR returns Fig 7's reusable proportion for OLSR.
func (r *Report) ReusedFractionOLSR() float64 {
	total := r.ReusedLoCOLSR + r.SpecificLoCOLSR
	if total == 0 {
		return 0
	}
	return float64(r.ReusedLoCOLSR) / float64(total)
}

// ReusedFractionDYMO returns Fig 7's reusable proportion for DYMO.
func (r *Report) ReusedFractionDYMO() float64 {
	total := r.ReusedLoCDYMO + r.SpecificLoCDYMO
	if total == 0 {
		return 0
	}
	return float64(r.ReusedLoCDYMO) / float64(total)
}

// PrintTable3 renders the paper's Table 3 layout, plus the AODV extension
// column.
func (r *Report) PrintTable3() {
	fmt.Println("Table 3. Reused generic components in MANET protocol compositions")
	fmt.Printf("%-34s %14s %6s %6s %6s\n", "", "Lines of Code", "OLSR", "DYMO", "AODV")
	mark := func(b bool) string {
		if b {
			return "X"
		}
		return ""
	}
	for _, row := range r.Rows {
		if !row.Component.Generic {
			continue
		}
		fmt.Printf("%-34s %14d %6s %6s %6s\n", row.Component.Name, row.LoC,
			mark(row.Component.OLSR), mark(row.Component.DYMO), mark(row.Component.AODV))
	}
	fmt.Printf("%-34s %14s %6d %6d %6d\n", "Reused Generic Components", "-",
		r.GenericCountOLSR, r.GenericCountDYMO, r.GenericCountAODV)
	fmt.Printf("%-34s %14s %6d %6d %6d\n", "Protocol-specific Components", "-",
		r.SpecificCountOLSR, r.SpecificCountDYMO, r.SpecificCountAODV)
}

// PrintFig7 renders Fig 7's series (reused vs specific LoC per protocol).
func (r *Report) PrintFig7() {
	fmt.Println("Fig 7. The proportion of reusable code in each protocol")
	fmt.Printf("%-8s %10s %10s %10s\n", "", "Reused", "Specific", "Reused%")
	fmt.Printf("%-8s %10d %10d %9.0f%%\n", "OLSR", r.ReusedLoCOLSR, r.SpecificLoCOLSR, 100*r.ReusedFractionOLSR())
	fmt.Printf("%-8s %10d %10d %9.0f%%\n", "DYMO", r.ReusedLoCDYMO, r.SpecificLoCDYMO, 100*r.ReusedFractionDYMO())
	fmt.Printf("%-8s %10d %10d %9.0f%%\n", "AODV", r.ReusedLoCAODV, r.SpecificLoCAODV, 100*r.ReusedFractionAODV())
}
