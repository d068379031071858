# Runs EXE with ARGS (one space-separated string) and fails unless it exits
# with EXPECT_EXIT and its stderr contains EXPECT_STDERR.
#
#   cmake -DEXE=<path> -DARGS="--flag value" -DEXPECT_EXIT=2
#         -DEXPECT_STDERR="text" -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${EXE} ${ARGS}: exit '${rc}', expected ${EXPECT_EXIT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${err}" "${EXPECT_STDERR}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "${EXE} ${ARGS}: stderr lacks '${EXPECT_STDERR}':\n${err}")
endif()
