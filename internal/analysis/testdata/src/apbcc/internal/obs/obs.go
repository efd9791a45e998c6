// Package obs stubs the repo's tracing package: the spanpair analyzer
// matches *obs.Trace by the internal/obs path suffix, so fixtures
// import this copy.
package obs

type Trace struct{ open int }

type Stage uint8

type Outcome string

const (
	StageRoute Stage = iota
	StageBuild
	StageWrite
)

const (
	OutcomeOK    Outcome = "ok"
	OutcomeError Outcome = "error"
)

func (t *Trace) Next(s Stage) {}

func (t *Trace) Finish(o Outcome) {}
