# Runs BINARY with ARGS (one space-separated string) and compares its stdout
# byte for byte with the checked-in GOLDEN file. On a mismatch the actual
# output is written to ACTUAL, a unified diff is printed, and the test fails.
#
#   cmake -DBINARY=... -DARGS="..." -DGOLDEN=... -DACTUAL=... \
#         -P check_golden.cmake
#
# A change that moves a modeled number regenerates the golden in the same
# diff, e.g. from the repository root:
#
#   ./build/bench/table3_cad_constants > tests/golden/table3_cad_constants.txt

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BINARY}" ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} ${ARGS} exited with status ${status}")
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR
          "stdout of ${BINARY} ${ARGS} differs from ${GOLDEN} "
          "(actual output kept in ${ACTUAL})")
endif()
