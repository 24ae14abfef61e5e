package mltools

import (
	"context"
	"fmt"
	"sync"

	"bridgescope/internal/mcp"
)

// Server registers the analytics tools into an MCP registry and owns the
// trained-model store. Train tools return a compact handle (model_id) plus
// metrics rather than serializing whole models into the LLM context; the
// predict tool resolves handles from the store. This mirrors how real ML
// tool servers behave and keeps token accounting honest.
type Server struct {
	mu     sync.Mutex
	nextID int
	models map[string]storedModel
	seed   int64
}

type storedModel struct {
	kind   string // "linear" or "forest"
	linear *LinearModel
	forest *Forest
	means  []float64
	stds   []float64
}

// NewServer creates a tool server; seed drives every stochastic component
// (bootstrap sampling, train/test splits).
func NewServer(seed int64) *Server {
	return &Server{models: map[string]storedModel{}, seed: seed}
}

// The analytics tools as a client is shown them; RegisterTools binds a
// server's handlers to copies.
var (
	zscoreTool = mcp.NewTool("zscore_normalize",
		"Standardize a feature matrix to zero mean and unit variance per column. Returns the normalized features plus the column means and stds.",
		objSchema(map[string]any{
			"features": map[string]any{"type": "array", "description": "matrix of numbers"},
		}, "features"))
	trainLinearTool = mcp.NewTool("train_linear_regression",
		"Train a linear regression on features/target with an 80/20 train-test split. Returns a model_id handle plus train/test RMSE and R².",
		objSchema(map[string]any{
			"features": map[string]any{"type": "array"},
			"target":   map[string]any{"type": "array"},
		}, "features", "target"))
	trainForestTool = mcp.NewTool("train_random_forest",
		"Train a random-forest regressor on features/target with an 80/20 train-test split. Returns a model_id handle plus train/test RMSE and R².",
		objSchema(map[string]any{
			"features": map[string]any{"type": "array"},
			"target":   map[string]any{"type": "array"},
			"trees":    map[string]any{"type": "integer"},
		}, "features", "target"))
	predictTool = mcp.NewTool("predict",
		"Predict with a previously trained model (by model_id) on a feature matrix. Applies the model's stored normalization when present.",
		objSchema(map[string]any{
			"model_id": map[string]any{"type": "string"},
			"features": map[string]any{"type": "array"},
		}, "model_id", "features"))
	evaluateTool = mcp.NewTool("evaluate_regression",
		"Compute RMSE and R² between predictions and ground truth.",
		objSchema(map[string]any{
			"predictions": map[string]any{"type": "array"},
			"truth":       map[string]any{"type": "array"},
		}, "predictions", "truth"))
	trendTool = mcp.NewTool("trend_analyze",
		"Analyze trends in one or two numeric series (e.g. sales and refunds records) and report direction, slope and mean.",
		objSchema(map[string]any{
			"sales":   map[string]any{"type": "array"},
			"refunds": map[string]any{"type": "array"},
			"series":  map[string]any{"type": "array"},
		}))
)

// RegisterTools adds the analytics tools to reg.
func (s *Server) RegisterTools(reg *mcp.Registry) {
	reg.Register(zscoreTool.Bind(s.handleZScore))
	reg.Register(trainLinearTool.Bind(s.handleTrainLinear))
	reg.Register(trainForestTool.Bind(s.handleTrainForest))
	reg.Register(predictTool.Bind(s.handlePredict))
	reg.Register(evaluateTool.Bind(s.handleEvaluate))
	reg.Register(trendTool.Bind(s.handleTrend))
}

func objSchema(props map[string]any, required ...string) map[string]any {
	reqAny := make([]any, len(required))
	for i, r := range required {
		reqAny[i] = r
	}
	return map[string]any{"type": "object", "properties": props, "required": reqAny}
}

func (s *Server) store(m storedModel) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := fmt.Sprintf("model-%d", s.nextID)
	s.models[id] = m
	return id
}

func (s *Server) load(id string) (storedModel, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.models[id]
	return m, ok
}

func (s *Server) handleZScore(ctx context.Context, args map[string]any) (any, error) {
	x, err := argMatrix(args, "features")
	if err != nil {
		return nil, err
	}
	norm, means, stds, err := ZScoreNormalize(x)
	if err != nil {
		return nil, err
	}
	return map[string]any{"features": norm, "means": means, "stds": stds}, nil
}

// trainArgs extracts features/target and, when the caller's features came
// through zscore_normalize, the attached means/stds.
func trainArgs(args map[string]any) (x [][]float64, y []float64, means, stds []float64, err error) {
	// The features argument may be a raw matrix or the full
	// zscore_normalize result object.
	if m, ok := args["features"].(map[string]any); ok {
		x, err = anyMatrix(m["features"])
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("features: %w", err)
		}
		means, _ = anyVector(m["means"])
		stds, _ = anyVector(m["stds"])
	} else {
		x, err = argMatrix(args, "features")
		if err != nil {
			return nil, nil, nil, nil, err
		}
	}
	y, err = argVector(args, "target")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if len(x) != len(y) {
		return nil, nil, nil, nil, fmt.Errorf("features has %d rows but target has %d", len(x), len(y))
	}
	return x, y, means, stds, nil
}

func (s *Server) handleTrainLinear(ctx context.Context, args map[string]any) (any, error) {
	x, y, means, stds, err := trainArgs(args)
	if err != nil {
		return nil, err
	}
	xTr, xTe, yTr, yTe, err := TrainTestSplit(x, y, 0.2, s.seed)
	if err != nil {
		return nil, err
	}
	model, err := TrainLinearRegression(xTr, yTr)
	if err != nil {
		return nil, err
	}
	id := s.store(storedModel{kind: "linear", linear: model, means: means, stds: stds})
	return trainResult(id, "linear_regression", model.Predict, xTr, yTr, xTe, yTe)
}

func (s *Server) handleTrainForest(ctx context.Context, args map[string]any) (any, error) {
	x, y, means, stds, err := trainArgs(args)
	if err != nil {
		return nil, err
	}
	cfg := ForestConfig{Seed: s.seed}
	if tv, ok := args["trees"].(float64); ok && tv > 0 {
		cfg.Trees = int(tv)
	}
	xTr, xTe, yTr, yTe, err := TrainTestSplit(x, y, 0.2, s.seed)
	if err != nil {
		return nil, err
	}
	model, err := TrainRandomForest(xTr, yTr, cfg)
	if err != nil {
		return nil, err
	}
	id := s.store(storedModel{kind: "forest", forest: model, means: means, stds: stds})
	return trainResult(id, "random_forest", model.Predict, xTr, yTr, xTe, yTe)
}

func trainResult(id, kind string, predict func([][]float64) ([]float64, error),
	xTr [][]float64, yTr []float64, xTe [][]float64, yTe []float64) (any, error) {
	predTr, err := predict(xTr)
	if err != nil {
		return nil, err
	}
	rmseTr, _ := RMSE(predTr, yTr)
	r2Tr, _ := R2(predTr, yTr)
	predTe, err := predict(xTe)
	if err != nil {
		return nil, err
	}
	rmseTe, _ := RMSE(predTe, yTe)
	r2Te, _ := R2(predTe, yTe)
	return map[string]any{
		"model_id": id, "model_type": kind,
		"n_train": len(xTr), "n_test": len(xTe),
		"rmse_train": rmseTr, "rmse_test": rmseTe,
		"r2_train": r2Tr, "r2_test": r2Te,
	}, nil
}

func (s *Server) handlePredict(ctx context.Context, args map[string]any) (any, error) {
	id, _ := args["model_id"].(string)
	m, ok := s.load(id)
	if !ok {
		return nil, fmt.Errorf("unknown model_id %q", id)
	}
	x, err := argMatrix(args, "features")
	if err != nil {
		return nil, err
	}
	if m.means != nil {
		x, err = ApplyZScore(x, m.means, m.stds)
		if err != nil {
			return nil, err
		}
	}
	var preds []float64
	switch m.kind {
	case "linear":
		preds, err = m.linear.Predict(x)
	case "forest":
		preds, err = m.forest.Predict(x)
	default:
		err = fmt.Errorf("corrupt model record %q", id)
	}
	if err != nil {
		return nil, err
	}
	return map[string]any{"predictions": preds}, nil
}

func (s *Server) handleEvaluate(ctx context.Context, args map[string]any) (any, error) {
	pred, err := argVector(args, "predictions")
	if err != nil {
		return nil, err
	}
	truth, err := argVector(args, "truth")
	if err != nil {
		return nil, err
	}
	rmse, err := RMSE(pred, truth)
	if err != nil {
		return nil, err
	}
	r2, err := R2(pred, truth)
	if err != nil {
		return nil, err
	}
	return map[string]any{"rmse": rmse, "r2": r2}, nil
}

func (s *Server) handleTrend(ctx context.Context, args map[string]any) (any, error) {
	out := map[string]any{}
	for _, key := range []string{"sales", "refunds", "series"} {
		raw, ok := args[key]
		if !ok {
			continue
		}
		series, err := anyVector(raw)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		tr, err := AnalyzeTrend(series)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		out[key+"_trend"] = tr
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("trend_analyze: provide sales, refunds, or series")
	}
	return out, nil
}

// --- argument coercion (decoded JSON from the model, dense floats from the proxy) ---

func argMatrix(args map[string]any, key string) ([][]float64, error) {
	v, ok := args[key]
	if !ok {
		return nil, fmt.Errorf("missing required argument %q", key)
	}
	m, err := anyMatrix(v)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	return m, nil
}

func anyMatrix(v any) ([][]float64, error) {
	switch rows := v.(type) {
	case [][]float64:
		return rows, nil
	case []any:
		out := make([][]float64, 0, len(rows))
		for i, r := range rows {
			vec, err := anyVector(r)
			if err != nil {
				return nil, fmt.Errorf("row %d: %w", i, err)
			}
			out = append(out, vec)
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("empty matrix")
		}
		return out, nil
	}
	return nil, fmt.Errorf("expected a matrix, got %T", v)
}

func argVector(args map[string]any, key string) ([]float64, error) {
	v, ok := args[key]
	if !ok {
		return nil, fmt.Errorf("missing required argument %q", key)
	}
	vec, err := anyVector(v)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	return vec, nil
}

func anyVector(v any) ([]float64, error) {
	switch vec := v.(type) {
	case []float64:
		return vec, nil
	case []any:
		out := make([]float64, len(vec))
		for i, e := range vec {
			switch n := e.(type) {
			case float64:
				out[i] = n
			case int64:
				out[i] = float64(n)
			case int:
				out[i] = float64(n)
			default:
				return nil, fmt.Errorf("element %d is %T, not numeric", i, e)
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("expected a vector, got %T", v)
}
