# Checks that the paper tables EXPERIMENTS.md quotes are the goldens: the
# first fenced block under each "## Table <N> —" heading must equal its
# golden file byte for byte. Table II is compared after mask_measured(), as
# golden.table2_overheads compares it. On a mismatch each offending block is
# written to ACTUAL_DIR, a unified diff is printed, and the test fails.
#
#   cmake -DEXPERIMENTS=... -DGOLDEN_DIR=... -DACTUAL_DIR=... \
#         -P check_experiments.cmake
#
# A change that regenerates a golden pastes the same stdout into
# EXPERIMENTS.md in the same diff.

include(${CMAKE_CURRENT_LIST_DIR}/mask_measured.cmake)

file(READ "${EXPERIMENTS}" doc)

# Sets `out` to the body of the first fenced block in the section that
# starts at `heading` (a line prefix) and ends at the next "## " heading.
function(section_block heading out)
  string(FIND "${doc}" "\n${heading}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${EXPERIMENTS} has no heading '${heading}'")
  endif()
  math(EXPR at "${at} + 1")
  string(SUBSTRING "${doc}" ${at} -1 section)
  string(FIND "${section}" "\n## " next)
  if(NOT next EQUAL -1)
    string(SUBSTRING "${section}" 0 ${next} section)
  endif()
  string(FIND "${section}" "\n```\n" open)
  if(open EQUAL -1)
    message(FATAL_ERROR "'${heading}' in ${EXPERIMENTS} has no fenced block")
  endif()
  math(EXPR open "${open} + 5")
  string(SUBSTRING "${section}" ${open} -1 body)
  string(FIND "${body}" "\n```" close)
  if(close EQUAL -1)
    message(FATAL_ERROR "'${heading}' in ${EXPERIMENTS}: unclosed fence")
  endif()
  math(EXPR close "${close} + 1")
  string(SUBSTRING "${body}" 0 ${close} body)
  set(${out} "${body}" PARENT_SCOPE)
endfunction()

set(failed "")
foreach(entry "Table I —|table1_characterization|exact"
              "Table II —|table2_overheads|masked"
              "Table III —|table3_cad_constants|exact"
              "Table IV —|table4_cache_extrapolation|exact")
  string(REPLACE "|" ";" fields "${entry}")
  list(GET fields 0 table)
  list(GET fields 1 golden)
  list(GET fields 2 compare)
  section_block("## ${table}" quoted)
  file(READ "${GOLDEN_DIR}/${golden}.txt" expected)
  if(compare STREQUAL "masked")
    mask_measured("${quoted}" quoted)
    mask_measured("${expected}" expected)
  endif()
  if(NOT quoted STREQUAL expected)
    set(actual "${ACTUAL_DIR}/experiments.${golden}.txt")
    file(WRITE "${actual}" "${quoted}")
    file(WRITE "${actual}.golden" "${expected}")
    execute_process(COMMAND diff -u "${actual}.golden" "${actual}")
    list(APPEND failed "${table}")
  endif()
endforeach()

if(failed)
  list(JOIN failed ", " failed)
  message(FATAL_ERROR "EXPERIMENTS.md quotes ${failed} differently from "
                      "${GOLDEN_DIR} (quoted blocks kept in ${ACTUAL_DIR})")
endif()
