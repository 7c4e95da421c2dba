package core

import "context"

// SolveAndTransform runs the static half of Optimize for one
// configuration (resolve, solve, transform and layout) without
// simulating, so a later Optimize of it finds those stages memoized.
func (s *Session) SolveAndTransform(ctx context.Context, opts Options) error {
	key, err := s.resolve(ctx, opts)
	if err != nil {
		return err
	}
	res, err := s.solve(ctx, key.solve)
	if err != nil {
		return err
	}
	_, err = s.transformFor(key.transform(res), res.InRAM)
	return err
}
