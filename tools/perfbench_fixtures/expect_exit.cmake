# Runs COMMAND (a ;-list) and fails unless it exits with EXPECT.
#   cmake -DCOMMAND=... -DEXPECT=<code> -P expect_exit.cmake
execute_process(COMMAND ${COMMAND} RESULT_VARIABLE code)
if(NOT code STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit ${code}, expected ${EXPECT}: ${COMMAND}")
endif()
