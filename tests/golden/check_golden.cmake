# Runs BINARY with ARGS (one space-separated string) and compares its stdout
# byte for byte with the checked-in GOLDEN file. On a mismatch the actual
# output is written to ACTUAL, a unified diff is printed, and the test fails.
#
#   cmake -DBINARY=... -DARGS="..." -DGOLDEN=... -DACTUAL=... \
#         [-DMASK_MEASURED=ON] -P check_golden.cmake
#
# MASK_MEASURED=ON is for table2_overheads, whose stdout carries two measured
# wall-clock fields among its modeled ones. Both sides are masked before the
# comparison (mask_measured.cmake says what is masked); everything else must
# still match byte for byte.
#
# A change that moves a modeled number regenerates the golden in the same
# diff, e.g. from the repository root:
#
#   ./build/bench/table3_cad_constants > tests/golden/table3_cad_constants.txt

include(${CMAKE_CURRENT_LIST_DIR}/mask_measured.cmake)

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BINARY}" ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} ${ARGS} exited with status ${status}")
endif()

file(READ "${GOLDEN}" expected)
set(golden_file "${GOLDEN}")
if(MASK_MEASURED)
  mask_measured("${actual}" actual)
  mask_measured("${expected}" expected)
endif()
if(NOT actual STREQUAL expected)
  if(MASK_MEASURED)  # diff the masked forms: the measured noise is no finding
    set(golden_file "${ACTUAL}.golden-masked")
    file(WRITE "${golden_file}" "${expected}")
  endif()
  file(WRITE "${ACTUAL}" "${actual}")
  execute_process(COMMAND diff -u "${golden_file}" "${ACTUAL}")
  message(FATAL_ERROR
          "stdout of ${BINARY} ${ARGS} differs from ${GOLDEN} "
          "(actual output kept in ${ACTUAL})")
endif()
