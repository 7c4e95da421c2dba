package evaluation

import "repro/internal/ir"

// Figure1Programs builds every Figure 1 micro-program, in plot order.
func Figure1Programs() ([]*ir.Program, error) {
	var out []*ir.Program
	for _, bar := range figure1Bars {
		p, _, err := figure1Program(bar.kind, bar.inRAM)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
