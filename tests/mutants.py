"""Recorded mutations of the source, each with the tests that must catch it.

    python3 tests/mutants.py

Each mutant is (name, file, exact old text, new text, test node ids). The
named tests first run once on an unmutated copy of the checkout, where each
must pass. Then, for each mutant, the checkout is copied to a temporary
directory, the old text, which must occur exactly once in the file, is
replaced by the new one, and pytest runs the named tests there. The mutant
is killed when every named test fails (for a parametrized test, one failing
case is enough), and survives otherwise. A mutant whose old text is gone, or
occurs more than once, is stale: the code moved under it, and the entry must
be brought up to date, not dropped.

A change that adds a check adds its mutants here. The exit status is 0 when
every mutant is killed and 1 otherwise. Needs numpy and pytest only; pytest
does not collect this file, and it is not part of tier-1.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT = 600  # seconds per pytest run; a mutant that hangs is reported, not waited on
_SKIP = shutil.ignore_patterns(".git", ".bench_cache", ".bench_out", ".benchmarks",
                               ".pytest_cache", "__pycache__", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple


MUTANTS = [
    # container: an int8 bias's scale is exactly its input site's scale times its weight's
    Mutant("bias-scale-within-a-tolerance", "src/efld/container.py",
           "            if scale != product:",
           "            if abs(scale - product) > 1e-9 * product:",
           ("tests/test_container.py::TestInt8Rules::test_bias_scale_one_ulp_off_is_rejected",)),
    # container: a site entry is int8
    Mutant("site-dtype-int32-allowed", "src/efld/container.py",
           "        elif dtype != np.int8:",
           "        elif dtype not in (np.int8, np.int32):",
           ("tests/test_container.py::TestInt8Rules::test_site_entry_tagged_int32_exits_2",
            "tests/test_container.py::TestInt8Rules::test_site_entry_must_be_int8")),
    # container: the table holds the layout's names in its order, each once
    Mutant("table-names-as-a-set", "src/efld/container.py",
           "if [name for name, _ in entries] != [tensor[0] for tensor in layout]:",
           "if {name for name, _ in entries} != {tensor[0] for tensor in layout}:",
           ("tests/test_container.py::TestTableOrder::test_repeated_site_entry_exits_2",
            "tests/test_container.py::TestTableOrder::test_swapped_site_entries_are_rejected")),
    # container: each field is read after one bounds check, naming the field
    Mutant("field-bounds-off-by-one", "src/efld/container.py",
           "        if self.pos > len(self.raw):\n            raise self.truncated(what, name)",
           "        if self.pos > len(self.raw) + 1:\n            raise self.truncated(what, name)",
           ("tests/test_container.py::TestLoadErrors::test_truncation_at_every_field_boundary",)),
    # container: the pairwise overlap scan runs when _may_overlap finds a candidate
    Mutant("overlap-scan-skipped", "src/efld/container.py",
           "        if scan:", "        if False:",
           ("tests/test_container.py::TestLoadErrors"
            "::test_overlapping_payloads_name_the_later_entry_first",
            "tests/test_container.py::TestLoadErrors"
            "::test_zero_length_entry_inside_a_later_payload_overlaps")),
    Mutant("zero-length-offsets-never-overlap", "src/efld/container.py",
           "            if at and offset < spans[at - 1][1]:", "            if False:",
           ("tests/test_container.py::TestLoadErrors"
            "::test_zero_length_entry_inside_a_later_payload_overlaps",)),
    # container: a payload's size is the exact product of its dims times the item size
    Mutant("payload-size-wraps-in-int64", "src/efld/container.py",
           "        items = math.prod(dims)",
           "        items = int(np.prod(dims, dtype=np.int64))",
           ("tests/test_container.py::TestInt8Rules::test_dims_whose_product_wraps_int64_exit_2",)),
    # container: a saved file gets 0o666 & ~umask, as open() would give it
    Mutant("saved-file-mode-0600", "src/efld/container.py",
           "        os.chmod(tmp, 0o666 & ~umask)", "        pass",
           ("tests/test_container.py::TestFloatRoundtrip::test_saved_file_mode_follows_the_umask",)),
    # cli: an OSError that names a path exits 2, not only FileNotFoundError
    Mutant("only-missing-files-exit-2", "src/efld/cli.py",
           "    except OSError as exc:", "    except FileNotFoundError as exc:",
           ("tests/test_cli.py::TestExitCodes::test_infer_directory_for_a_file_exits_2",)),
    # training: a head has its registered format's point count
    Mutant("head-points-only-too-few", "src/efld/training.py",
           "head.points != registry.get(head.format).points",
           "head.points < registry.get(head.format).points",
           ("tests/test_cli.py::TestInvalidInput::test_head_points_not_its_formats_exits_2",)),
    # training: a diverging forward and backward raise no numpy warning
    Mutant("diverging-step-warns", "src/efld/training.py",
           '    with np.errstate(over="ignore", invalid="ignore"):',
           '    with np.errstate(over="ignore"):',
           ("tests/test_cli.py::test_diverging_forward_prints_no_numpy_warning",)),
    # data: JSONL lines are numbered as bytes.splitlines numbers the file
    Mutant("jsonl-split-at-newline-only", "src/efld/data.py",
           "lines = (line for chunk in fh for line in chunk.splitlines())",
           'lines = (chunk.rstrip(b"\\r\\n") for chunk in fh)',
           ("tests/test_formats_data.py::TestDatasetIO"
            "::test_line_numbers_count_crlf_and_bare_cr_as_one_line_end",)),
    # data: the JSONL is read one line at a time
    Mutant("jsonl-read-whole", "src/efld/data.py",
           "lines = (line for chunk in fh for line in chunk.splitlines())",
           "lines = fh.read().splitlines()",
           ("tests/test_formats_data.py::TestEightBitCrops"
            "::test_load_dataset_peak_is_what_it_keeps",)),
    # cli: eval and infer prune the model to the asked head right after load
    Mutant("eval-runs-every-head", "src/efld/cli.py",
           "    model = load(args.model).with_heads([args.format])\n    fmt =",
           "    model = load(args.model)\n    fmt =",
           ("tests/test_cli.py::TestEvalCommand::test_float_model_runs_the_asked_head_alone",
            "tests/test_cli.py::TestEvalCommand::test_int8_model_runs_the_asked_head_alone")),
    Mutant("infer-runs-every-head", "src/efld/cli.py",
           "    model = load(args.model).with_heads([args.format])\n    size =",
           "    model = load(args.model)\n    size =",
           ("tests/test_cli.py::TestEvalCommand::test_float_model_runs_the_asked_head_alone",
            "tests/test_cli.py::TestEvalCommand::test_int8_model_runs_the_asked_head_alone")),
    # cli: numeric flags are checked where they are parsed
    Mutant("threshold-infinite-accepted", "src/efld/cli.py",
           "lambda v: 0 < v < math.inf", "lambda v: 0 < v",
           ("tests/test_fuzz.py::test_flag_values_exit_cleanly[eval-threshold]",)),
    Mutant("noise-infinite-accepted", "src/efld/cli.py",
           "lambda v: math.copysign(1, v) > 0 and v < math.inf", "lambda v: v >= 0",
           ("tests/test_fuzz.py::test_flag_values_exit_cleanly[synth-noise]",)),
    Mutant("count-unchecked", "src/efld/cli.py",
           '"--count", type=_at_least(1)', '"--count", type=int',
           ("tests/test_fuzz.py::test_flag_values_exit_cleanly[synth-count]",)),
    Mutant("size-unchecked", "src/efld/cli.py",
           '"--size", type=_at_least(1)', '"--size", type=int',
           ("tests/test_fuzz.py::test_flag_values_exit_cleanly[synth-size]",)),
    # with_heads: a pruned model holds the tensors of its own layers and sites only
    Mutant("float-with-heads-keeps-every-layer", "src/efld/model.py",
           'for spec in iter_layers(config) for part in (".w", ".b")',
           'for spec in iter_layers(self.config) for part in (".w", ".b")',
           ("tests/test_container.py::TestWithHeads::test_shares_only_its_own_tensors",
            "tests/test_container.py::TestWithHeads"
            "::test_parameter_count_is_the_pruned_containers")),
    Mutant("int8-with-heads-keeps-every-site", "src/efld/quantize.py",
           "for site in plan_sites(config)})", "for site in plan_sites(self.config)})",
           ("tests/test_container.py::TestWithHeads::test_shares_only_its_own_tensors",)),
    # container: a failed save names the path asked for and leaves no temporary file
    Mutant("save-error-names-the-temp-file", "src/efld/container.py",
           "            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from exc",
           "            raise",
           ("tests/test_cli.py::TestExportInfer::test_export_that_cannot_write_names_out",)),
    Mutant("failed-save-keeps-its-temp-file", "src/efld/container.py",
           "        if tmp is not None and os.path.exists(tmp):\n            os.unlink(tmp)",
           "        pass",
           ("tests/test_cli.py::TestExportInfer"
            "::test_export_that_cannot_write_leaves_no_temporary_file",)),
    # image: the resize blends along x, then along y, each band from all its source rows
    Mutant("resize-vertical-pass-first", "src/efld/image.py",
           """        blend, other = scratch[0, :n], scratch[1, :n]
        np.take(picked, left, axis=1, out=blend, mode="clip")
        blend *= left_w
        np.take(picked, right, axis=1, out=other, mode="clip")
        other *= right_w
        blend += other
        band_out, below = out[start:stop], scratch[1, : stop - start]
        np.take(blend, upper[start:stop] - first, axis=0, out=band_out, mode="clip")
        band_out *= 1 - wy[start:stop]
        np.take(blend, lower[start:stop] - first, axis=0, out=below, mode="clip")
        below *= wy[start:stop]
        band_out += below""",
           """        blend = (picked[upper[start:stop] - first] * (1 - wy[start:stop])
                 + picked[lower[start:stop] - first] * wy[start:stop])
        out[start:stop] = blend[:, left] * left_w + blend[:, right] * right_w""",
           ("tests/test_formats_data.py::TestResizeBits::test_bit_equal_to_the_oracle",)),
    Mutant("resize-band-one-source-row-short", "src/efld/image.py",
           "        first, last = upper[start], lower[stop - 1] + 1",
           "        first, last = upper[start], lower[stop - 1]",
           ("tests/test_formats_data.py::TestResizeBits::test_bit_equal_to_the_oracle",
            "tests/test_cli.py::TestExportInfer::test_infer_single_image_and_nonsquare_resize")),
    Mutant("resize-right-sample-weighted-1-wx", "src/efld/image.py",
           "right_w, left_w = np.repeat(wx, c), np.repeat(1 - wx, c)",
           "right_w, left_w = np.repeat(1 - wx, c), np.repeat(1 - wx, c)",
           ("tests/test_formats_data.py::TestResizeBits::test_bit_equal_to_the_oracle",
            "tests/test_cli.py::TestExportInfer::test_infer_single_image_and_nonsquare_resize")),
    # image: uint8 codes are written as they are
    Mutant("write-ppm-rounds-codes-as-floats", "src/efld/image.py",
           "    if arr.dtype == np.uint8:\n        data = arr",
           "    if False:\n        data = arr",
           ("tests/test_formats_data.py::TestEightBitCrops"
            "::test_read_ppm_codes_reads_what_write_ppm_wrote",)),
    # ops: each member of a sibling group records its own backward, with its own weights
    Mutant("sibling-backward-with-the-first-layers-weights", "src/efld/ops.py",
           """            tape.record(op, results[-1], _conv_backward(x, params, w2, cols, stride, pt, pl))
    return results


def _conv_backward(x: Tensor, params: LayerParams, w2, cols, stride: int, pt: int, pl: int):
    \"\"\"The backward of one conventional convolution of ``x``, whose forward
    read the receptive-field view ``cols`` with the (top, left) padding
    (pt, pl), and the weights as the (fan_in, cout) matrix ``w2``.\"\"\"
    w = params.weights.data""",
           """            tape.record(op, results[-1], _conv_backward(x, params, w2, cols, stride, pt, pl,
                                                        layers[0]))
    return results


def _conv_backward(x: Tensor, params: LayerParams, w2, cols, stride: int, pt: int, pl: int,
                   first):
    w = first.weights.data""",
           ("tests/test_differential.py::test_taped_gradients_match_central_differences",
            "tests/test_tensor_ops.py::TestSiblingConv2d"
            "::test_gradients_are_each_layers_conv2d_gradients")),
    Mutant("sibling-group-records-its-first-layer-only", "src/efld/ops.py",
           "        if tape is not None:\n            tape.record(op, results[-1], _conv_backward(",
           "        if tape is not None and params is layers[0]:\n"
           "            tape.record(op, results[-1], _conv_backward(",
           ("tests/test_differential.py::test_taped_gradients_match_central_differences",
            "tests/test_model.py::test_forward_calls_each_patched_op_once_per_plan_step")),
    # ops: pixels that no tap reaches get a gradient of exactly zero; only a
    # kernel smaller than the stride leaves a phase that no GEMM writes
    Mutant("conv-input-gradient-from-np-empty", "src/efld/ops.py",
           "    dx = np.zeros(shape, dtype=grad.dtype)\n    for r0 in range(stride):",
           "    dx = np.empty(shape, dtype=grad.dtype)\n    for r0 in range(stride):",
           ("tests/test_tensor_ops.py::TestConv2dInputGradient"
            "::test_one_by_one_stride2_leaves_untapped_pixels_exactly_zero",)),
    # ops: the depthwise input gradient adds its taps in row-major order
    Mutant("phase-gradient-taps-column-major", "src/efld/ops.py",
           "            for i in range(a, kh, stride):\n"
           "                for j in range(b, kw, stride):",
           "            for j in range(b, kw, stride):\n"
           "                for i in range(a, kh, stride):",
           ("tests/test_tensor_ops.py::TestDepthwiseInputGradient::test_bit_equal_to_the_scatter",)),
    # ops: a depthwise convolution reads each sample's own stride phases
    Mutant("depthwise-samples-coupled", "src/efld/ops.py",
           "else np.ascontiguousarray(padded[:, a::stride, b::stride])",
           "else np.ascontiguousarray(padded[:1, a::stride, b::stride])",
           ("tests/test_tensor_ops.py::TestDepthwiseInputGradient"
            "::test_each_sample_has_the_bits_of_its_own_call",)),
    # recorded in CHANGES.md with earlier changes
    Mutant("container-bias-shape-cin", "src/efld/container.py",
           '".b", (spec.cout,), "bias"', '".b", (spec.cin,), "bias"',
           ("tests/test_container.py::TestFloatRoundtrip::test_save_load_save_byte_idempotent",
            "tests/test_container.py::TestQuantizedRoundtrip::test_byte_idempotent")),
    Mutant("container-site-zero-point-from-minus-127", "src/efld/container.py",
           "lo, hi = (QMIN, QMAX) if", "lo, hi = (QMIN + 1, QMAX) if",
           ("tests/test_container.py::TestPlanChecks::test_zero_point_range",)),
    Mutant("micro-batch-scaled-by-its-own-count", "src/efld/training.py",
           "scale = len(read[fmt_name])", "scale = count",
           ("tests/test_differential.py::test_micro_batched_step_matches_the_whole_batch",)),
    # training: head_rows alone decides what a step, its micro-batches and
    # each head's divisor read, so a degenerate annotation neither runs a
    # micro-batch nor a step
    Mutant("micro-batch-runs-on-an-annotation", "src/efld/training.py",
           "starts = sorted({i - i % size for read in rows.values() for i in read})",
           "starts = sorted({i - i % size for i, s in enumerate(batch) if s.annotations})",
           ("tests/test_training.py"
            "::test_step_with_degenerate_samples_does_not_depend_on_its_split",)),
    Mutant("step-runs-on-an-annotation", "src/efld/training.py",
           "    if not starts:\n        return None",
           "    if not any(s.annotations for s in batch):\n        return None",
           ("tests/test_training.py::TestTrainLoop"
            "::test_degenerate_sample_in_a_batch_of_its_own_is_skipped",
            "tests/test_cli.py::TestTrainCommand::test_degenerate_sample_in_a_batch_of_its_own")),
    # model: on_lanes yields in item order; one runner serves the training
    # step, the float forward and the int8 forward, so the tests of each must
    # catch it on their own
    Mutant("lane-results-added-as-they-finish", "src/efld/model.py",
           "            yield pending.popleft().result()",
           "            from concurrent.futures import as_completed\n"
           "            first = next(as_completed(pending))\n"
           "            pending.remove(first)\n"
           "            yield first.result()",
           ("tests/test_training.py::TestLanes"
            "::test_first_micro_batch_ending_last_gives_the_sequential_bits",
            "tests/test_training.py::TestLanes"
            "::test_nan_pixel_raises_the_first_failing_micro_batchs_error")),
    Mutant("int8-chunks-joined-in-finish-order", "src/efld/model.py",
           "            yield pending.popleft().result()",
           "            from concurrent.futures import as_completed\n"
           "            first = next(as_completed(pending))\n"
           "            pending.remove(first)\n"
           "            yield first.result()",
           ("tests/test_quantize.py::TestQuantizedForward"
            "::test_first_chunk_ending_last_gives_the_rows_in_batch_order",)),
    Mutant("forward-blocks-joined-in-finish-order", "src/efld/model.py",
           "            yield pending.popleft().result()",
           "            from concurrent.futures import as_completed\n"
           "            first = next(as_completed(pending))\n"
           "            pending.remove(first)\n"
           "            yield first.result()",
           ("tests/test_model.py::TestForwardLanes"
            "::test_first_block_ending_last_gives_the_whole_batch_bits",
            "tests/test_model.py::TestForwardLanes"
            "::test_nan_pixel_raises_the_first_failing_blocks_error")),
    # model: a caller that stops reading on_lanes's results joins what it started
    Mutant("lanes-not-joined-when-the-caller-raises", "src/efld/model.py",
           "        wait(pending)", "        pass",
           ("tests/test_model.py::TestForwardLanes"
            "::test_raising_forward_returns_after_every_started_block",
            "tests/test_training.py::TestLanes"
            "::test_raising_step_returns_after_every_started_micro_batch")),
    # training: numpy's error state is per thread, so each lane sets its own
    Mutant("lane-without-its-errstate", "src/efld/training.py",
           '    with np.errstate(over="ignore", invalid="ignore"):',
           "    with np.errstate():",
           ("tests/test_training.py::TestTrainLoop::test_non_finite_loss_names_lr_max",
            "tests/test_cli.py::test_diverging_forward_prints_no_numpy_warning")),
    # model: numpy's error state is per thread, so each lane takes the caller's
    Mutant("forward-lane-without-callers-errstate", "src/efld/model.py",
           "        with np.errstate(**errors):",
           "        with np.errstate():",
           ("tests/test_model.py::TestForwardLanes"
            "::test_lanes_raise_on_overflow_under_the_callers_errstate",
            "tests/test_model.py::TestForwardLanes"
            "::test_lanes_ignore_overflow_under_the_callers_errstate")),
    # model: a batch of one block (float) or one chunk (int8) runs on the calling thread
    Mutant("forward-lanes-at-batch-one", "src/efld/model.py",
           "    if len(starts) == 1:\n        return fn(0)\n",
           "",
           ("tests/test_model.py::TestForwardLanes::test_batch_of_one_starts_no_thread",
            "tests/test_quantize.py::TestQuantizedForward::test_batch_of_one_starts_no_thread")),
    # model: an observer (calibration) runs on the lanes with the blocks
    Mutant("observed-blocks-in-order-on-the-caller", "src/efld/model.py",
           "    return Tensor(rows_on_lanes(block_rows, len(images.data), block))",
           "    starts = range(0, len(images.data), block)\n"
           "    return Tensor(np.concatenate([block_rows(start) for start in starts])\n"
           "                  if observer is not None\n"
           "                  else rows_on_lanes(block_rows, len(images.data), block))",
           ("tests/test_quantize.py::TestCalibrate"
            "::test_observer_runs_on_the_lanes_in_any_block_order",)),
    # quantize: a non-finite pixel is named by its index in the batch, not in its chunk
    Mutant("int8-nan-named-within-its-chunk", "src/efld/quantize.py",
           'raise ValidationError(f"quantized_forward: image {first + n} has a non-finite pixel")',
           'raise ValidationError(f"quantized_forward: image {n} has a non-finite pixel")',
           ("tests/test_quantize.py::TestQuantizedForward"
            "::test_non_finite_pixel_is_named_by_its_batch_index",)),
    # quantize: calibration merges the blocks' ranges keeping any NaN, and
    # rejects a range that is not finite
    Mutant("calibration-merge-drops-nan", "src/efld/quantize.py",
           "ranges[site] = (np.minimum(old_lo, lo), np.maximum(old_hi, hi))",
           "ranges[site] = (min(old_lo, lo), max(old_hi, hi))",
           ("tests/test_quantize.py::TestCalibrate::test_nan_in_a_later_block_is_not_dropped",)),
    Mutant("calibration-range-not-checked", "src/efld/quantize.py",
           "        if not (math.isfinite(lo) and math.isfinite(hi)):",
           "        if False:",
           ("tests/test_quantize.py::TestCalibrate::test_non_finite_range_names_the_first_site",
            "tests/test_cli.py::test_quantize_of_an_overflowing_model_names_the_site")),
    # model: the process has one set of lanes, and a forked child a set of its own
    Mutant("lanes-built-per-call", "src/efld/model.py",
           "    submitted = (_LANES.submit(run, item) for item in items)",
           "    lanes = ThreadPoolExecutor(STEP_LANES, thread_name_prefix=\"efld-lane\")\n"
           "    submitted = (lanes.submit(run, item) for item in items)",
           ("tests/test_training.py::test_one_set_of_lanes_runs_every_forward_and_step",)),
    Mutant("lanes-kept-after-fork", "src/efld/model.py",
           "os.register_at_fork(after_in_child=_reset_lanes)\n", "",
           ("tests/test_model.py::TestForwardLanes::test_forked_child_runs_lanes_of_its_own",)),
    # model: the lanes split the step's budget, so two micro-batches fit it together
    Mutant("lanes-each-take-the-whole-budget", "src/efld/model.py",
           "return max(1, _STEP_ELEMENTS // (STEP_LANES * per_sample))",
           "return max(1, _STEP_ELEMENTS // per_sample)",
           ("tests/test_training.py::test_training_step_peak_memory_is_bounded_by_the_plan",
            "tests/test_differential.py::test_micro_batched_step_matches_the_whole_batch")),
    Mutant("param-count-without-bias", "src/efld/model.py",
           "return math.prod(self.weight_shape) + self.cout", "return math.prod(self.weight_shape)",
           ("tests/test_metrics.py::TestCostAccounting::test_default_config_flops_and_params",)),
    # model: a layer's MACs are fan_in per output value, over the whole output
    Mutant("macs-without-output-area", "src/efld/model.py",
           "return self.fan_in * self.cout * math.prod(self.out_hw)",
           "return self.fan_in * self.cout",
           ("tests/test_metrics.py::TestCostAccounting::test_default_config_flops_and_params",
            "tests/test_metrics.py::TestCostAccounting"
            "::test_separable_macs_per_documented_formula",
            "tests/test_acceptance.py::test_criterion_01_default_cost_and_container",
            "tests/test_acceptance.py::test_criterion_02_conv_backbone_ablation_cost",
            "tests/test_acceptance.py::test_criterion_03_plain_head_ablation_cost")),
    Mutant("mixed-batch-stacked-unconverted", "src/efld/image.py",
           "return np.stack([_as_float(p) for p in images]).astype(dtype, copy=False)",
           "return np.stack(images).astype(dtype, copy=False)",
           ("tests/test_formats_data.py::TestEightBitCrops"
            "::test_batch_has_the_bits_of_the_float_images",)),
    # formats: the inter-ocular distance is between the format's two eye points
    Mutant("interocular-wrong-eye-index", "src/efld/formats.py",
           "g[:, left] - g[:, right]", "g[:, left] - g[:, -1]",
           ("tests/test_formats_data.py::TestInterocular::test_hand_case",)),
    # metrics: a point within 5 pixels of its ground truth counts as correct
    Mutant("pixel-radius-4", "src/efld/metrics.py",
           "PIXEL_RADIUS = 5.0", "PIXEL_RADIUS = 4.0",
           ("tests/test_metrics.py::TestPixelAccuracy"
            "::test_three_four_five_triangle_boundary_inclusive",)),
    # metrics: the inference modules do not import the trainer
    Mutant("metrics-imports-the-trainer", "src/efld/metrics.py",
           "from .formats import LandmarkFormat, _nme_terms",
           "from .formats import LandmarkFormat\nfrom .training import _nme_terms",
           ("tests/test_cli.py::test_inference_modules_load_no_trainer",)),
    Mutant("formats-imports-the-autodiff", "src/efld/formats.py",
           "from .errors import ConfigError, UsageError\n",
           "from .errors import ConfigError, UsageError\nfrom .tensor import Tensor  # noqa: F401\n",
           ("tests/test_cli.py::test_inference_modules_load_no_trainer",)),
    # cli: the parser loads no numpy, so --threads is set before numpy reads it
    Mutant("parser-imports-the-model", "src/efld/cli.py",
           "def build_parser() -> _Parser:\n",
           "def build_parser() -> _Parser:\n    from .model import VARIANTS  # noqa: F401\n",
           ("tests/test_cli.py::test_parser_loads_no_numpy",
            "tests/test_cli.py::test_threads_set_before_numpy_import")),
    # cli: train, eval and quantize take only square crops at the model's size
    Mutant("crop-check-height-only", "src/efld/cli.py",
           "    if (h, w) != (size, size):", "    if h != size:",
           ("tests/test_cli.py::TestInvalidInput::test_crops_narrower_than_model_exit_2",)),
    # cli: infer --image reads one PPM and loads no dataset reader
    Mutant("infer-image-imports-the-dataset-reader", "src/efld/cli.py",
           "    from .image import bilinear_resize, read_ppm\n\n    if (args.image",
           "    from .data import load_dataset  # noqa: F401\n"
           "    from .image import bilinear_resize, read_ppm\n\n    if (args.image",
           ("tests/test_cli.py::test_infer_image_loads_no_dataset_reader",)),
    Mutant("ppm-zero-size-accepted", "src/efld/image.py",
           "    if w < 1 or h < 1:", "    if w < 0 or h < 0:",
           ("tests/test_fuzz.py::test_read_ppm_raises_only_data_errors",)),
    Mutant("depthwise-1x1-gradient-assigned", "src/efld/ops.py",
           "dx[:, :rows, :cols] += grad * w[pt : pt + rows, pl : pl + cols]",
           "dx[:, :rows, :cols] = grad * w[pt : pt + rows, pl : pl + cols]",
           ("tests/test_tensor_ops.py::TestDepthwiseInputGradient"
            "::test_one_by_one_output_bit_equal_to_the_scatter",)),
    # cli: eval rejects a degenerate annotation as bad data, naming its record
    Mutant("eval-degenerate-is-a-usage-error", "src/efld/cli.py",
           "        raise DataError(f\"{args.data}: {annotated[np.argmin(usable)].path}",
           "        raise UsageError(f\"{args.data}: {annotated[np.argmin(usable)].path}",
           ("tests/test_cli.py::TestExitCodes"
            "::test_eval_of_a_degenerate_annotation_exits_2_naming_it",)),
    # cli: infer --data names each prediction by its record's image
    Mutant("infer-names-by-index", "src/efld/cli.py",
           "jobs = ((sample.path, sample.image) for sample in _nonempty_dataset(args.data))",
           "jobs = ((f\"images/{i:06d}.ppm\", sample.image)\n"
           "                for i, sample in enumerate(_nonempty_dataset(args.data)))",
           ("tests/test_cli.py::TestExportInfer::test_infer_names_each_prediction_by_its_record",)),
    Mutant("eval-predicts-its-first-chunk", "src/efld/cli.py",
           "for start in range(0, len(annotated), EVAL_SAMPLES)",
           "for start in range(0, min(len(annotated), EVAL_SAMPLES), EVAL_SAMPLES)",
           ("tests/test_cli.py::TestEvalCommand::test_chunks_score_like_one_forward",)),
    Mutant("int8-accumulates-in-float32", "src/efld/quantize.py",
           "return np.float32 if spec.fan_in * (QMAX - QMIN) * -QMIN < 2**24 else np.float64",
           "return np.float32",
           ("tests/test_quantize.py::TestIntegerOracle::test_accumulator_dtype_follows_fan_in",
            "tests/test_quantize.py::TestIntegerOracle"
            "::test_accumulator_is_exact_at_the_extremes")),
    Mutant("concat-tables-from-the-first-operand", "src/efld/quantize.py",
           "_requant(_CODES, act[site], act[step.output]) for site in step.inputs",
           "_requant(_CODES, act[step.inputs[0]], act[step.output]) for site in step.inputs",
           ("tests/test_quantize.py::TestIntegerOracle"
            "::test_quantized_forward_matches_integer_oracle",
            "tests/test_differential.py::test_quantized_forward_matches_the_integer_oracle")),
    Mutant("group-requantized-with-the-first-multiplier", "src/efld/quantize.py",
           "_floor_requant(y, o.multiplier, o.offset, real, codes)",
           "_floor_requant(y, self.outputs[0].multiplier, o.offset, real, codes)",
           ("tests/test_differential.py::test_quantized_forward_matches_the_integer_oracle",)),
    Mutant("group-adds-the-first-offset-row", "src/efld/quantize.py",
           "_floor_requant(y, o.multiplier, o.offset, real, codes)",
           "_floor_requant(y, o.multiplier, self.outputs[0].offset, real, codes)",
           ("tests/test_differential.py::test_quantized_forward_matches_the_integer_oracle",)),
    # quantize: the four-pass requantization runs only where its offsets are proved
    Mutant("floor-requant-without-the-proof", "src/efld/quantize.py",
           "proved.append(o if ok else None)", "proved.append(o)",
           ("tests/test_quantize.py::TestFloorRequant::test_an_unproved_layer_keeps_the_contract",)),
    Mutant("proof-checks-only-at-the-threshold", "src/efld/quantize.py",
           "return bool(fits_at.all() and fits_below.all())", "return bool(fits_at.all())",
           ("tests/test_quantize.py::TestFloorRequant"
            "::test_proved_offsets_give_the_contract_codes",)),
    Mutant("floor-offset-without-the-half", "src/efld/quantize.py",
           "np.repeat(zp[:, 0] + 128.5, counts)", "np.repeat(zp[:, 0] + 128.0, counts)",
           ("tests/test_quantize.py::TestFloorRequant::test_every_calibrated_layer_is_proved",)),
    Mutant("gradients-want-every-tensor", "src/efld/tensor.py",
           "return self._wanted is None or id(tensor) in self._wanted", "return True",
           ("tests/test_autodiff.py::test_excluded_leaf_gradient_is_never_read_as_zero",
            "tests/test_autodiff.py::test_pruning_changes_no_parameter_gradient_bit")),
    Mutant("wrt-zero-fills-an-excluded-tensor", "src/efld/tensor.py",
           "        if not self.wants(tensor):", "        if False:",
           ("tests/test_autodiff.py::test_excluded_leaf_gradient_is_never_read_as_zero",)),
]


def _run(root: str, tests) -> tuple:
    """(pytest's exit code, the node ids it reports as failed or errored)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no",
               "-rfE", *tests]
    done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT)
    return done.returncode, re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)


def _caught(test: str, failed) -> bool:
    """Whether a failure reported by pytest covers the named ``test``: the
    test itself, one of its parametrized cases or tests, or its file."""
    return any(f == test or f.startswith((test + "[", test + "::"))
               or test.startswith(f + "::") for f in failed)


def _copy(into: str) -> str:
    root = os.path.join(into, "checkout")
    shutil.copytree(ROOT, root, ignore=_SKIP)
    return root


def check(mutant: Mutant) -> str:
    """'killed', 'survived: ...', 'stale: ...' or 'timeout'."""
    with tempfile.TemporaryDirectory(prefix="efld-mutant-") as tmp:
        root = _copy(tmp)
        path = os.path.join(root, mutant.file)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        count = text.count(mutant.old)
        if count != 1:
            return f"stale: the old text occurs {count} times in {mutant.file}"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        try:
            _, failed = _run(root, mutant.tests)
        except subprocess.TimeoutExpired:
            return "timeout"
    survivors = [t for t in mutant.tests if not _caught(t, failed)]
    return f"survived: {', '.join(survivors)} passed" if survivors else "killed"


def main() -> int:
    start = time.monotonic()
    tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="efld-mutant-") as tmp:
        code, failed = _run(_copy(tmp), tests)
    if code != 0:
        print(f"the named tests do not pass unmutated (pytest exit {code}): "
              f"{', '.join(failed) or 'see pytest'}")
        return 1
    print(f"unmutated: {len(tests)} named tests pass ({time.monotonic() - start:.0f} s)")
    results = []
    for mutant in MUTANTS:
        began = time.monotonic()
        result = check(mutant)
        results.append(result)
        print(f"{mutant.name}: {result} ({time.monotonic() - began:.0f} s)", flush=True)
    killed = results.count("killed")
    print(f"{killed} of {len(results)} mutants killed in {time.monotonic() - start:.0f} s")
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
