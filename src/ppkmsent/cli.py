"""Command-line interface for the sentiment pipeline.

Usage: ``ppkmsent <stage> --config pipeline.cfg`` where stage is one of
ingest, review, label, train, eval, viz.  Exit codes: 0 success, 1
configuration or stage-order error, 2 runtime failure.  The environment
variable ``PPKMSENT_OUTPUT_DIR`` overrides the configured output directory.
"""

from __future__ import annotations

import argparse
import logging
import sys

from ppkmsent import pipeline, review
from ppkmsent.errors import ConfigError, PipelineError, StageOrderError

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

_STAGE_RUNNERS = {
    "ingest": pipeline.run_ingest,
    "label": pipeline.run_label,
    "train": pipeline.run_train,
    "eval": pipeline.run_eval,
    "viz": pipeline.run_viz,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppkmsent",
        description="Sentiment-analysis pipeline for policy-related tweets.",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log stage progress"
    )
    subparsers = parser.add_subparsers(dest="stage", required=True)
    for stage, help_text in (
        ("ingest", "read raw records, dedupe, filter, write the corpus"),
        ("review", "step through records issuing keep/drop/label decisions"),
        ("label", "preprocess and bootstrap-label the corpus"),
        ("train", "fit the configured model on the training split"),
        ("eval", "score trained models on the test split"),
        ("viz", "write frequency tables, cloud weights, and charts"),
    ):
        sub = subparsers.add_parser(stage, help=help_text)
        sub.add_argument(
            "-c", "--config", required=True, help="path to the pipeline config file"
        )
        if stage == "review":
            sub.add_argument(
                "--import",
                dest="import_path",
                default=None,
                help="merge an externally edited CSV instead of reviewing "
                "interactively",
            )
            sub.add_argument(
                "--fresh",
                action="store_true",
                help="discard saved progress and restart from the first record",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = pipeline.load_config(args.config)
        if args.stage == "review":
            review.run_review(
                config,
                input_stream=sys.stdin,
                output_stream=sys.stdout,
                import_path=args.import_path,
                fresh=args.fresh,
            )
        else:
            outputs = _STAGE_RUNNERS[args.stage](config)
            for path in outputs:
                print(path)
    except (ConfigError, StageOrderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PipelineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
