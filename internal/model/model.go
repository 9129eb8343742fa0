// Package model implements the paper's iterative-I/O performance model
// (§III):
//
//	t_app         = t_init + Σ t_epoch + t_term              (Eq. 1)
//	t_sync_epoch  = t_io + t_comp                            (Eq. 2a)
//	t_async_epoch = max(t_comp, t_io − t_comp) + t_overhead  (Eq. 2b)
//	t_io          = data_size / f_io_rate                    (Eq. 3)
//
// f_io_rate is estimated empirically from a history of past I/O
// requests: for each request the history stores (data size, MPI ranks,
// observed aggregate rate); the estimators fit either the paper's Eq. 4
// linear form (rate = β0·size + β1·ranks, used for the linearly scaling
// asynchronous staging rate) or a linear-log form in the rank count
// (rate = β0 + β1·ln ranks, used for the saturating synchronous rate),
// and expose Eq. 5's coefficient of determination. Computation time is
// tracked with a weighted moving average. An Advisor compares the two
// epoch estimates to decide which I/O mode the next epoch should use —
// the feedback loop of the paper's Fig. 2.
package model

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"asyncio/internal/stats"
	"asyncio/internal/trace"
)

// Observation is one past I/O request: how much data, how many ranks,
// and the aggregate rate achieved.
type Observation struct {
	Bytes int64
	Ranks int
	Rate  float64 // bytes/second
}

// History is a bounded record of past observations, newest last.
type History struct {
	mu  sync.Mutex
	obs []Observation
	max int
}

// NewHistory returns a history bounded to max observations (0 means
// unbounded).
func NewHistory(max int) *History { return &History{max: max} }

// Add appends an observation, evicting the oldest past the bound.
func (h *History) Add(o Observation) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.obs = append(h.obs, o)
	if h.max > 0 && len(h.obs) > h.max {
		h.obs = h.obs[len(h.obs)-h.max:]
	}
}

// Snapshot returns a copy of the observations.
func (h *History) Snapshot() []Observation {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Observation(nil), h.obs...)
}

// FitKind selects the regression form for an I/O-rate model.
type FitKind int

// Supported regression forms.
const (
	// FitLinearSizeRanks is Eq. 4: rate = β0·size + β1·ranks (no
	// intercept). Fits the asynchronous staging rate, which scales
	// linearly (§V-A1).
	FitLinearSizeRanks FitKind = iota
	// FitLinearLogRanks is rate = β0 + β1·ln(ranks): the saturating
	// synchronous aggregate rate (dotted lines in Fig. 3).
	FitLinearLogRanks
	// FitLinearRanks is rate = β0 + β1·ranks, provided for the ablation
	// comparing linear and linear-log fits on saturating data.
	FitLinearRanks
	// FitMean is the degenerate-history fallback: within a single run,
	// every request has the same size and rank count, so the regression
	// matrix is singular; the best estimator is then the mean observed
	// rate. FitRate falls back to it automatically.
	FitMean
)

// String names the fit kind.
func (k FitKind) String() string {
	switch k {
	case FitLinearSizeRanks:
		return "linear(size,ranks)"
	case FitLinearLogRanks:
		return "linear-log(ranks)"
	case FitLinearRanks:
		return "linear(ranks)"
	case FitMean:
		return "mean-rate"
	default:
		return fmt.Sprintf("fitkind(%d)", int(k))
	}
}

// ErrInsufficientData is returned when a history cannot support a fit.
var ErrInsufficientData = errors.New("model: insufficient observations")

// RateModel estimates f_io_rate (Eq. 3) from history.
type RateModel struct {
	Kind FitKind
	Fit  stats.Fit
	N    int
	mean float64 // used by FitMean
}

// minObservations before a fit is attempted. Two suffice because the
// degenerate-history path falls back to a mean-rate model.
const minObservations = 2

// FitRate fits a rate model of the given form to the history.
func FitRate(h *History, kind FitKind) (RateModel, error) {
	obs := h.Snapshot()
	if len(obs) < minObservations {
		return RateModel{}, fmt.Errorf("%w: have %d, need %d", ErrInsufficientData, len(obs), minObservations)
	}
	sizes := make([]float64, len(obs))
	ranks := make([]float64, len(obs))
	rates := make([]float64, len(obs))
	for i, o := range obs {
		sizes[i] = float64(o.Bytes)
		ranks[i] = float64(o.Ranks)
		rates[i] = o.Rate
	}
	var fit stats.Fit
	var err error
	switch kind {
	case FitLinearSizeRanks:
		fit, err = stats.LinearNoIntercept2(sizes, ranks, rates)
	case FitLinearLogRanks:
		fit, err = stats.LinearLog(ranks, rates)
	case FitLinearRanks:
		fit, err = stats.Linear(ranks, rates)
	case FitMean:
		return meanModel(rates, len(obs)), nil
	default:
		return RateModel{}, fmt.Errorf("model: unknown fit kind %v", kind)
	}
	if errors.Is(err, stats.ErrDegenerate) {
		// Constant regressors (single-run history): fall back to the
		// mean observed rate.
		return meanModel(rates, len(obs)), nil
	}
	if err != nil {
		return RateModel{}, err
	}
	return RateModel{Kind: kind, Fit: fit, N: len(obs)}, nil
}

func meanModel(rates []float64, n int) RateModel {
	return RateModel{Kind: FitMean, N: n, mean: stats.Mean(rates)}
}

// EstimateRate returns the estimated aggregate rate (bytes/s) for a
// request of the given size and rank count. Estimates are floored at a
// tiny positive rate so downstream divisions are safe.
func (m RateModel) EstimateRate(bytes int64, ranksN int) float64 {
	var r float64
	switch m.Kind {
	case FitLinearSizeRanks:
		r = m.Fit.EvalNoIntercept2(float64(bytes), float64(ranksN))
	case FitLinearLogRanks:
		r = m.Fit.EvalLinearLog(float64(ranksN))
	case FitLinearRanks:
		r = m.Fit.EvalLinear(float64(ranksN))
	case FitMean:
		r = m.mean
	}
	if r < 1 {
		r = 1
	}
	return r
}

// EstimateIOTime is Eq. 3: data_size / f_io_rate.
func (m RateModel) EstimateIOTime(bytes int64, ranksN int) time.Duration {
	secs := float64(bytes) / m.EstimateRate(bytes, ranksN)
	return time.Duration(secs * float64(time.Second))
}

// R2 is the fit's coefficient of determination (Eq. 5).
func (m RateModel) R2() float64 { return m.Fit.R2 }

// Estimator is the full feedback-loop state of Fig. 2: computation-time
// EWMA plus separate rate histories for synchronous I/O and the
// asynchronous transactional overhead.
type Estimator struct {
	mu        sync.Mutex
	comp      *stats.EWMA
	syncHist  *History
	asyncHist *History
	syncKind  FitKind
	asyncKind FitKind

	syncModel  RateModel
	asyncModel RateModel
	syncOK     bool
	asyncOK    bool
	dirtySync  bool
	dirtyAsync bool
}

// EstimatorOption configures NewEstimator.
type EstimatorOption func(*Estimator)

// WithFitKinds overrides the regression forms (defaults: linear-log for
// sync, Eq. 4 linear for async).
func WithFitKinds(syncKind, asyncKind FitKind) EstimatorOption {
	return func(e *Estimator) {
		e.syncKind = syncKind
		e.asyncKind = asyncKind
	}
}

// NewEstimator returns an empty estimator.
func NewEstimator(opts ...EstimatorOption) *Estimator {
	e := &Estimator{
		comp:      stats.NewEWMA(0.5),
		syncHist:  NewHistory(0),
		asyncHist: NewHistory(0),
		syncKind:  FitLinearLogRanks,
		asyncKind: FitLinearSizeRanks,
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// ObserveComp folds a measured computation-phase duration into the EWMA.
func (e *Estimator) ObserveComp(d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.comp.Observe(d.Seconds())
}

// ObserveSyncIO records a synchronous I/O phase: aggregate bytes, rank
// count, blocking duration.
func (e *Estimator) ObserveSyncIO(bytes int64, ranks int, d time.Duration) {
	if d <= 0 {
		return
	}
	e.syncHist.Add(Observation{Bytes: bytes, Ranks: ranks, Rate: float64(bytes) / d.Seconds()})
	e.mu.Lock()
	e.dirtySync = true
	e.mu.Unlock()
}

// ObserveOverhead records an asynchronous staging (transactional
// overhead) phase.
func (e *Estimator) ObserveOverhead(bytes int64, ranks int, d time.Duration) {
	if d <= 0 {
		return
	}
	e.asyncHist.Add(Observation{Bytes: bytes, Ranks: ranks, Rate: float64(bytes) / d.Seconds()})
	e.mu.Lock()
	e.dirtyAsync = true
	e.mu.Unlock()
}

// CompEstimate returns the estimated next computation-phase duration.
func (e *Estimator) CompEstimate() (time.Duration, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.comp.Ready() {
		return 0, false
	}
	return time.Duration(e.comp.Value() * float64(time.Second)), true
}

// refitLocked refreshes stale models.
func (e *Estimator) refitLocked() {
	if e.dirtySync {
		if m, err := FitRate(e.syncHist, e.syncKind); err == nil {
			e.syncModel, e.syncOK = m, true
		}
		e.dirtySync = false
	}
	if e.dirtyAsync {
		if m, err := FitRate(e.asyncHist, e.asyncKind); err == nil {
			e.asyncModel, e.asyncOK = m, true
		}
		e.dirtyAsync = false
	}
}

// SyncModel returns the current synchronous rate model.
func (e *Estimator) SyncModel() (RateModel, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.refitLocked()
	return e.syncModel, e.syncOK
}

// AsyncModel returns the current transactional-overhead rate model.
func (e *Estimator) AsyncModel() (RateModel, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.refitLocked()
	return e.asyncModel, e.asyncOK
}

// EpochEstimate holds the model's prediction for one future epoch.
type EpochEstimate struct {
	Comp     time.Duration
	SyncIO   time.Duration
	Overhead time.Duration
	Sync     time.Duration // Eq. 2a
	Async    time.Duration // Eq. 2b
}

// Better returns the mode with the smaller estimated epoch time.
func (ee EpochEstimate) Better() trace.Mode {
	if ee.Async < ee.Sync {
		return trace.Async
	}
	return trace.Sync
}

// EstimateEpoch predicts the next epoch's duration under both modes for
// an I/O phase of the given aggregate size and rank count. ok is false
// until the estimator has computation history plus both rate models.
func (e *Estimator) EstimateEpoch(bytes int64, ranks int) (EpochEstimate, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.refitLocked()
	if !e.comp.Ready() || !e.syncOK || !e.asyncOK {
		return EpochEstimate{}, false
	}
	comp := time.Duration(e.comp.Value() * float64(time.Second))
	tIO := e.syncModel.EstimateIOTime(bytes, ranks)
	tOv := e.asyncModel.EstimateIOTime(bytes, ranks)
	est := EpochEstimate{
		Comp:     comp,
		SyncIO:   tIO,
		Overhead: tOv,
		Sync:     tIO + comp,
		Async:    maxDur(comp, tIO-comp) + tOv,
	}
	return est, true
}

// EstimateApp is Eq. 1 for a run of iters identical epochs.
func EstimateApp(init, term, epoch time.Duration, iters int) time.Duration {
	return init + term + time.Duration(iters)*epoch
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// SlowdownRegion reports whether asynchronous I/O is predicted to be a
// slowdown per the Fig. 1c condition t_comp ≤ t_overhead: no amount of
// overlap amortizes the transactional copy.
func (ee EpochEstimate) SlowdownRegion() bool {
	return ee.Comp <= ee.Overhead
}
