package routers

import (
	"scout/internal/core"
	"scout/internal/proto/udp"
)

// ILPRule is the paper's integrated-layer-processing transformation (§4.1):
// when MPEG sits above UDP on a path (MFLOW between them passes payload
// bytes through untouched), the UDP checksum computation is folded into
// MPEG's own 32-bit reads of the packet data, so the payload is traversed
// once instead of twice. The transformation is expressed exactly as the
// paper describes — a guard matching the stage sequence and a transform
// that swaps the processing functions (here: disables UDP's separate
// verification pass, whose cost the fused read absorbs for free) on every
// UDP stage the path has now or gets from a resplice.
func ILPRule(mpegName, mflowName, udpName string) core.Rule {
	return core.Rule{
		Name: "ilp-udp-cksum-into-mpeg",
		Guard: func(p *core.Path) bool {
			return p.HasSequence(mpegName, mflowName, udpName)
		},
		Transform: func(p *core.Path) error {
			p.Interpose(func(_ int, s *core.Stage) {
				if s.Router.Name == udpName {
					udp.DisableRxChecksumCharge(s)
				}
			})
			return nil
		},
	}
}
