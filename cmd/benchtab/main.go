// Command benchtab regenerates the paper's tables and figures on the
// synthetic dataset stand-ins and prints them with paper-reference notes.
//
// Usage:
//
//	benchtab -exp all            # everything (slow)
//	benchtab -exp table3         # Table III
//	benchtab -exp fig1|fig3|fig4w|fig4r
//	benchtab -exp fig4rates      # the measured inputs behind Figure 4
//	benchtab -exp sec5           # fpc/fpzip comparison
//	benchtab -exp repeat|lin|map|isobar|chunk|index|model
//	benchtab -exp isomode|solvers|related
//	benchtab -exp relatedworkrates  # the measured inputs behind the related-work study
//	benchtab -exp precond        # preconditioner selection modes
//	benchtab -n 262144           # elements per dataset
//	benchtab -json               # rows as JSON instead of tables
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"primacy/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtab: ")
	exp := flag.String("exp", "all", "experiment to run")
	n := flag.Int("n", 0, "elements per dataset (0 = default)")
	jsonOut := flag.Bool("json", false, "emit rows as JSON instead of tables")
	flag.Parse()
	asJSON = *jsonOut

	runners := map[string]func(int) error{
		"table3":           runTable3,
		"fig1":             runFig1,
		"fig3":             runFig3,
		"fig4rates":        runFig4Rates,
		"fig4w":            runFig4Write,
		"fig4r":            runFig4Read,
		"sec5":             runSec5,
		"repeat":           runRepeat,
		"lin":              runLin,
		"map":              runMap,
		"isobar":           runISOBAR,
		"chunk":            runChunk,
		"index":            runIndex,
		"model":            runModel,
		"isomode":          runIsoMode,
		"solvers":          runSolvers,
		"related":          runRelated,
		"relatedworkrates": runRelatedWorkRates,
		"precond":          runPrecond,
	}
	order := []string{"fig1", "fig3", "table3", "fig4rates", "fig4w", "fig4r", "model",
		"repeat", "lin", "map", "isobar", "chunk", "index", "sec5",
		"isomode", "solvers", "relatedworkrates", "related", "precond"}
	if *exp == "all" {
		for _, name := range order {
			fmt.Printf("==================== %s ====================\n", name)
			if err := runners[name](*n); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			fmt.Println()
		}
		return
	}
	run, ok := runners[*exp]
	if !ok {
		log.Fatalf("unknown experiment %q (have: all %v)", *exp, order)
	}
	if err := run(*n); err != nil {
		log.Fatal(err)
	}
}

// asJSON switches every runner to JSON row output.
var asJSON bool

// emit prints rows as JSON when -json is set; otherwise it prints the
// rendered table.
func emit(rows any, rendered string) error {
	if !asJSON {
		fmt.Print(rendered)
		return nil
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

func runTable3(n int) error {
	rows, err := experiments.TableIII(n)
	if err != nil {
		return err
	}
	return emit(rows, experiments.RenderTableIII(rows))
}

func runFig1(n int) error {
	series, err := experiments.Fig1(n)
	if err != nil {
		return err
	}
	return emit(series, experiments.RenderFig1(series))
}

func runFig3(n int) error {
	rows, err := experiments.Fig3(n)
	if err != nil {
		return err
	}
	// The full 65536-bin histograms are omitted from JSON output.
	if asJSON {
		type slim struct {
			Dataset            string
			Exponent, Mantissa any
		}
		out := make([]slim, 0, len(rows))
		for _, r := range rows {
			out = append(out, slim{r.Dataset, r.Exponent, r.Mantissa})
		}
		return emit(out, "")
	}
	return emit(rows, experiments.RenderFig3(rows))
}

func runFig4Rates(n int) error {
	rates, err := experiments.MeasureFig4(n, experiments.DefaultEnv())
	if err != nil {
		return err
	}
	return emit(rates, experiments.RenderFig4Rates(rates))
}

func runFig4Write(n int) error {
	rows, err := experiments.Fig4Write(n, experiments.DefaultEnv())
	if err != nil {
		return err
	}
	return emit(rows, experiments.RenderFig4(rows, true))
}

func runFig4Read(n int) error {
	rows, err := experiments.Fig4Read(n, experiments.DefaultEnv())
	if err != nil {
		return err
	}
	return emit(rows, experiments.RenderFig4(rows, false))
}

func runSec5(n int) error {
	rows, err := experiments.PredictiveComparison(n)
	if err != nil {
		return err
	}
	return emit(rows, experiments.RenderPredictive(rows))
}

func runRepeat(n int) error {
	rows, err := experiments.RepeatabilityGain(n)
	if err != nil {
		return err
	}
	return emit(rows, experiments.RenderRepeatability(rows))
}

func runLin(n int) error {
	rows, err := experiments.LinearizationAblation(n)
	if err != nil {
		return err
	}
	return emit(rows, experiments.RenderAblation(rows, "col", "row"))
}

func runMap(n int) error {
	rows, err := experiments.IDMappingAblation(n)
	if err != nil {
		return err
	}
	return emit(rows, experiments.RenderAblation(rows, "ranked", "ident"))
}

func runISOBAR(n int) error {
	rows, err := experiments.ISOBARAblation(n)
	if err != nil {
		return err
	}
	return emit(rows, experiments.RenderAblation(rows, "isobar", "all"))
}

func runChunk(n int) error {
	rows, err := experiments.ChunkSizeSweep(n)
	if err != nil {
		return err
	}
	return emit(rows, experiments.RenderChunkSweep(rows))
}

func runIndex(n int) error {
	rows, err := experiments.IndexReuseStudy(n)
	if err != nil {
		return err
	}
	return emit(rows, experiments.RenderIndexReuse(rows))
}

func runIsoMode(n int) error {
	rows, err := experiments.ISOBARModeAblation(n)
	if err != nil {
		return err
	}
	return emit(rows, experiments.RenderAblation(rows, "byte", "bit"))
}

func runSolvers(n int) error {
	rows, err := experiments.SolverSweep(n)
	if err != nil {
		return err
	}
	return emit(rows, experiments.RenderSolverSweep(rows))
}

func runRelated(n int) error {
	rows, err := experiments.RelatedWorkStudy(n, experiments.DefaultEnv())
	if err != nil {
		return err
	}
	return emit(rows, experiments.RenderRelatedWork(rows))
}

func runRelatedWorkRates(n int) error {
	rates, err := experiments.MeasureRelatedWork(n, experiments.DefaultEnv())
	if err != nil {
		return err
	}
	return emit(rates, experiments.RenderRelatedWorkRates(rates))
}

func runModel(n int) error {
	rows, err := experiments.ModelValidation(n, experiments.DefaultEnv())
	if err != nil {
		return err
	}
	return emit(rows, experiments.RenderModelValidation(rows))
}

func runPrecond(n int) error {
	cmp, err := experiments.ComparePrecond(experiments.PrecondConfig{N: n})
	if err != nil {
		return err
	}
	return emit(cmp, experiments.RenderPrecond(cmp))
}
