let included x = x
