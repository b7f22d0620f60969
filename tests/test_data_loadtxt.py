"""The ``test_data`` tests that parse a CSV body, run again with the exact
decimal parse off, so the ``np.loadtxt`` tier that hosts without an x87
long double take stays covered on hosts that have one."""

from __future__ import annotations

import pytest

import test_data
from negcontrol import _numparse

# every test_data test that opens a CSV with load_csv, itself or through a
# helper; a test added there that does belongs here too
RERUN = (
    "test_cr_only_load_csv_takes_the_fast_parse",
    "test_in_memory_bad_cell_in_second_range_reports_scan_position",
    "test_in_memory_body_is_parsed_over_forked_ranges",
    "test_load_csv_basic",
    "test_load_csv_blank_line_mid_file",
    "test_load_csv_drops_a_byte_order_mark",
    "test_load_csv_drops_only_the_first_byte_order_mark",
    "test_load_csv_duplicate_header",
    "test_load_csv_empty_file",
    "test_load_csv_hash_is_not_a_comment",
    "test_load_csv_header_only_raises_without_warning",
    "test_load_csv_keeps_the_array_it_parsed",
    "test_load_csv_line_endings",
    "test_load_csv_matches_scan_reference",
    "test_load_csv_missing_cell_reports_position",
    "test_load_csv_nan_cell_reports_position",
    "test_load_csv_non_finite_cell",
    "test_load_csv_non_numeric_cell",
    "test_load_csv_of_a_lone_byte_order_mark_is_empty",
    "test_load_csv_pipe_bad_cell_reports_position",
    "test_load_csv_pipe_parses_unforked_ranges_itself",
    "test_load_csv_quoted_cell",
    "test_load_csv_ragged_row",
    "test_load_csv_single_column",
    "test_load_csv_strips_header_whitespace",
    "test_load_csv_too_few_rows",
    "test_load_csv_trailing_blank_line",
    "test_load_csv_underscore_digits_read_as_float_does",
    "test_parse_chunk_splits_a_body_of_two_and_a_half_chunks",
    "test_split_load_csv_child_exit_status_sends_file_to_scan",
    "test_split_load_csv_fault_reports_scan_position",
    "test_split_load_csv_leaves_no_child_or_descriptor",
    "test_split_load_csv_matches_scan",
    "test_split_load_csv_matches_scan_reference",
    "test_split_load_csv_one_row_last_range",
    "test_split_load_csv_parses_unforked_ranges_itself",
    "test_split_load_csv_part_of_a_row_sends_file_to_scan",
    "test_split_load_csv_short_payload_sends_file_to_scan",
    "test_write_csv_bytes_match_reference_writer",
    "test_write_csv_preserves_float_precision",
    "test_write_csv_round_trip",
    "test_write_load_round_trip_is_bit_exact",
)


@pytest.fixture(autouse=True, scope="module")
def _loadtxt_tier():
    """Turn the extended-precision guard off for every test here."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("negcontrol._numparse.exact_division",
                   lambda encoding: False)
        yield


def test_the_guard_is_off_here():
    assert not _numparse.exact_division("utf-8")


table_dataset = test_data.table_dataset
globals().update((name, getattr(test_data, name)) for name in RERUN)
