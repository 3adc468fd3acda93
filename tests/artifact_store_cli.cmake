# Runs `artifact_store <DIR> <COMMAND>` on a directory that does not exist
# yet, then checks the exit status is EXPECT and, with CREATES=OFF, that the
# directory was not created.  Usage:
#   cmake -DTOOL=<artifact_store> -DDIR=<dir> -DCOMMAND=<command>
#         -DEXPECT=<exit status> -DCREATES=<ON|OFF> -P artifact_store_cli.cmake
file(REMOVE_RECURSE "${DIR}")
execute_process(COMMAND "${TOOL}" "${DIR}" "${COMMAND}" RESULT_VARIABLE status)
if(NOT status EQUAL EXPECT)
  message(FATAL_ERROR "artifact_store ${COMMAND}: exit status ${status}, expected ${EXPECT}")
endif()
if(CREATES AND NOT EXISTS "${DIR}")
  message(FATAL_ERROR "artifact_store ${COMMAND}: ${DIR} was not created")
endif()
if(NOT CREATES AND EXISTS "${DIR}")
  message(FATAL_ERROR "artifact_store ${COMMAND}: created ${DIR}")
endif()
file(REMOVE_RECURSE "${DIR}")
